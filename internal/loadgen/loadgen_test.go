package loadgen

import (
	"context"
	"crypto"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
)

// TestRunAgainstServingTier drives a short open-loop run against a real
// loopback serving tier and checks the accounting.
func TestRunAgainstServingTier(t *testing.T) {
	ca, err := pki.NewRootCA(pki.Config{Name: "loadgen CA", OCSPURL: "http://loadgen.test"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"loadgen.test"}})
	if err != nil {
		t.Fatal(err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	r := responder.New("loadgen.test", ca, db, clock.Real{}, responder.Profile{
		CacheResponses: true, Validity: 24 * time.Hour,
	})
	srv := ocspserver.NewServer(ocspserver.NewHandler(r))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	req, err := ocsp.NewRequest(leaf.Certificate, ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	reqDER, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), Config{
		Rate:        400,
		Duration:    time.Second,
		Workers:     8,
		GETFraction: 0.5,
		Seed:        7,
	}, []Target{{URL: srv.URL(), ReqDER: reqDER}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 400 {
		t.Errorf("scheduled = %d, want 400", res.Scheduled)
	}
	if res.Completed != res.Scheduled {
		t.Errorf("completed %d of %d (transport %d, http %d)",
			res.Completed, res.Scheduled, res.TransportErrors, res.HTTPErrors)
	}
	if res.Status5xx != 0 {
		t.Errorf("5xx = %d", res.Status5xx)
	}
	if res.GET.Count() == 0 || res.POST.Count() == 0 {
		t.Errorf("expected mixed methods, got GET=%d POST=%d", res.GET.Count(), res.POST.Count())
	}
	if res.GET.Count()+res.POST.Count() != res.Overall.Count() {
		t.Error("per-method histograms don't sum to overall")
	}
	if res.Throughput() <= 0 {
		t.Error("zero throughput")
	}
	if res.Overall.Quantile(0.999) < res.Overall.Quantile(0.5) {
		t.Error("p999 below p50")
	}

	// The method mix is a pure function of the seed: a second run with
	// the same seed draws the identical split.
	res2, err := Run(context.Background(), Config{
		Rate: 400, Duration: time.Second, Workers: 8, GETFraction: 0.5, Seed: 7,
	}, []Target{{URL: srv.URL(), ReqDER: reqDER}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.GET.Count() != res.GET.Count() {
		t.Errorf("seeded GET split changed: %d vs %d", res2.GET.Count(), res.GET.Count())
	}
}

// TestOpenLoopLatencyIncludesQueueing: a server that stalls must show the
// stall in measured latency even for requests "sent" during the stall —
// the coordinated-omission guarantee.
func TestOpenLoopLatencyIncludesQueueing(t *testing.T) {
	var served atomic.Int64
	blocker := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if served.Add(1) > 1 {
			<-blocker // every request after the first stalls until release
		}
		w.Write([]byte{0x30, 0x03, 0x0a, 0x01, 0x01}) // any 200 body
	})
	srv := &http.Server{Handler: mux}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	done := make(chan *Result, 1)
	go func() {
		// 1 worker: the stalled first in-flight request queues everything
		// behind it.
		res, _ := Run(context.Background(), Config{
			Rate: 100, Duration: 500 * time.Millisecond, Workers: 1,
			GETFraction: 1, Timeout: 10 * time.Second,
		}, []Target{{URL: "http://" + ln.Addr().String(), ReqDER: []byte{1}}})
		done <- res
	}()
	time.Sleep(800 * time.Millisecond)
	close(blocker)
	res := <-done

	if res.Completed < 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// The tail must reflect the ~800ms stall, even though each request
	// completed quickly once actually sent.
	if p99 := time.Duration(res.Overall.Quantile(0.99)); p99 < 200*time.Millisecond {
		t.Errorf("p99 = %v; open-loop latency must include scheduled-to-completion queueing", p99)
	}
}
