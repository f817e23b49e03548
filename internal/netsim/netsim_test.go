package netsim

import (
	"errors"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/hashx"
)

var t0 = time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)

func okHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body))
	})
}

func oregon() Vantage { return PaperVantages()[0] }
func seoul() Vantage  { return PaperVantages()[5] }

func TestRegisteredHostReachable(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.a.test", "", okHandler("hello"))
	res, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.a.test/x", "", nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Status != http.StatusOK || string(res.Body) != "hello" {
		t.Errorf("res = %d %q", res.Status, res.Body)
	}
	if res.Latency < oregon().BaseRTT {
		t.Errorf("latency %v below base RTT", res.Latency)
	}
}

func TestUnregisteredHostIsNXDOMAIN(t *testing.T) {
	n := New()
	_, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://nonexistent.test/", "", nil)
	var ne *Error
	if !errors.As(err, &ne) || ne.Kind != FailDNS {
		t.Fatalf("err = %v, want DNS failure", err)
	}
}

func TestPersistentDNSRuleForOneVantage(t *testing.T) {
	// The *.digitalcertvalidation.com case: permanent failures visible
	// only from São Paulo.
	n := New()
	n.RegisterHost("statush.digitalcertvalidation.test", "", okHandler("ok"))
	n.AddRule(&Rule{
		Host:       "statush.digitalcertvalidation.test",
		Vantages:   []string{"Sao-Paulo"},
		Kind:       FailHTTP,
		HTTPStatus: http.StatusNotFound,
	})
	sp := PaperVantages()[2]
	res, err := n.DoSimple(sp, t0, http.MethodGet, "http://statush.digitalcertvalidation.test/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusNotFound {
		t.Errorf("São Paulo should see 404, got %d", res.Status)
	}
	res, err = n.DoSimple(oregon(), t0, http.MethodGet, "http://statush.digitalcertvalidation.test/", "", nil)
	if err != nil || res.Status != http.StatusOK {
		t.Errorf("Oregon should succeed, got %v %v", res, err)
	}
}

func TestWindowedOutage(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.comodoca.test", "", okHandler("ok"))
	outage := Window{From: t0.Add(19 * time.Hour), To: t0.Add(21 * time.Hour)}
	n.AddRule(&Rule{
		Host:     "ocsp.comodoca.test",
		Vantages: []string{"Oregon", "Sydney", "Seoul"},
		Windows:  []Window{outage},
		Kind:     FailTCP,
	})
	// Before the window: fine.
	if _, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.comodoca.test/", "", nil); err != nil {
		t.Errorf("before window: %v", err)
	}
	// Inside the window, from an affected vantage: TCP failure.
	_, err := n.DoSimple(oregon(), t0.Add(20*time.Hour), http.MethodGet, "http://ocsp.comodoca.test/", "", nil)
	var ne *Error
	if !errors.As(err, &ne) || ne.Kind != FailTCP {
		t.Errorf("inside window: err = %v, want TCP failure", err)
	}
	// Inside the window from an unaffected vantage: fine (the paper's
	// regional outages were only observed at specific clients).
	virginia := PaperVantages()[1]
	if _, err := n.DoSimple(virginia, t0.Add(20*time.Hour), http.MethodGet, "http://ocsp.comodoca.test/", "", nil); err != nil {
		t.Errorf("Virginia should be unaffected: %v", err)
	}
	// At the window boundary (To is exclusive): recovered.
	if _, err := n.DoSimple(oregon(), t0.Add(21*time.Hour), http.MethodGet, "http://ocsp.comodoca.test/", "", nil); err != nil {
		t.Errorf("after window: %v", err)
	}
}

func TestBackendGroupOutage(t *testing.T) {
	// 8 hostnames CNAME to ocsp.comodoca.com and 6 share its IP: one
	// backend rule takes them all down.
	n := New()
	hosts := []string{"ocsp.comodoca.test", "ocsp.usertrust.test", "ocsp.positivessl.test"}
	for _, h := range hosts {
		n.RegisterHost(h, "comodo-backend", okHandler("ok"))
	}
	n.AddRule(&Rule{
		Backend: "comodo-backend",
		Windows: []Window{{From: t0, To: t0.Add(2 * time.Hour)}},
		Kind:    FailTCP,
	})
	for _, h := range hosts {
		if _, err := n.DoSimple(oregon(), t0.Add(time.Hour), http.MethodGet, "http://"+h+"/", "", nil); err == nil {
			t.Errorf("%s should be down with its backend", h)
		}
		if _, err := n.DoSimple(oregon(), t0.Add(3*time.Hour), http.MethodGet, "http://"+h+"/", "", nil); err != nil {
			t.Errorf("%s should recover: %v", h, err)
		}
	}
	if got := n.Backend(hosts[0]); got != "comodo-backend" {
		t.Errorf("Backend = %q", got)
	}
}

func TestTLSFailureRule(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.badcert.test", "", okHandler("ok"))
	n.AddRule(&Rule{Host: "ocsp.badcert.test", Kind: FailTLS})
	_, err := n.DoSimple(seoul(), t0, http.MethodGet, "https://ocsp.badcert.test/", "", nil)
	var ne *Error
	if !errors.As(err, &ne) || ne.Kind != FailTLS {
		t.Fatalf("err = %v, want TLS failure", err)
	}
	if ne.Error() == "" {
		t.Error("Error() should be descriptive")
	}
}

func TestRuleWithoutTargetNeverMatches(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.ok.test", "", okHandler("ok"))
	n.AddRule(&Rule{Kind: FailTCP}) // neither Host nor Backend
	if _, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.ok.test/", "", nil); err != nil {
		t.Errorf("target-less rule must not match: %v", err)
	}
}

func TestHTTPRuleDefaultStatus(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.h.test", "", okHandler("ok"))
	n.AddRule(&Rule{Host: "ocsp.h.test", Kind: FailHTTP})
	res, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.h.test/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusInternalServerError {
		t.Errorf("default injected status = %d, want 500", res.Status)
	}
}

func TestLatencyDeterminism(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.lat.test", "", okHandler("ok"))
	a, err := n.DoSimple(seoul(), t0, http.MethodGet, "http://ocsp.lat.test/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.DoSimple(seoul(), t0.Add(10*time.Minute), http.MethodGet, "http://ocsp.lat.test/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency {
		t.Errorf("same hour should give same latency: %v vs %v", a.Latency, b.Latency)
	}
	c, _ := n.DoSimple(seoul(), t0, http.MethodGet, "http://ocsp.lat.test/", "", nil)
	if a.Latency != c.Latency {
		t.Error("latency must be deterministic")
	}
}

func TestHostsListing(t *testing.T) {
	n := New()
	n.RegisterHost("b.test", "", okHandler(""))
	n.RegisterHost("a.test", "", okHandler(""))
	got := n.Hosts()
	if len(got) != 2 || got[0] != "a.test" || got[1] != "b.test" {
		t.Errorf("Hosts = %v", got)
	}
}

func TestPaperVantages(t *testing.T) {
	vs := PaperVantages()
	if len(vs) != 6 {
		t.Fatalf("got %d vantages, want 6", len(vs))
	}
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name] = true
		if v.BaseRTT <= 0 {
			t.Errorf("%s has non-positive RTT", v.Name)
		}
	}
	for _, want := range []string{"Oregon", "Virginia", "Sao-Paulo", "Paris", "Sydney", "Seoul"} {
		if !names[want] {
			t.Errorf("missing vantage %s", want)
		}
	}
}

func TestWindowSemantics(t *testing.T) {
	w := Window{From: t0, To: t0.Add(time.Hour)}
	if w.Contains(t0.Add(-time.Second)) {
		t.Error("before From")
	}
	if !w.Contains(t0) {
		t.Error("From is inclusive")
	}
	if w.Contains(t0.Add(time.Hour)) {
		t.Error("To is exclusive")
	}
	// Open-ended windows.
	if !(Window{}).Contains(t0) {
		t.Error("zero window contains everything")
	}
	if !(Window{From: t0}).Contains(t0.AddDate(10, 0, 0)) {
		t.Error("open To extends forever")
	}
	if !(Window{To: t0.Add(time.Hour)}).Contains(t0) {
		t.Error("open From extends backwards")
	}
}

// outcome is the comparable result of one exchange: the failure kind of a
// transport error, or the HTTP status of a response.
type outcome struct {
	kind   FailureKind
	status int
}

func exchange(t *testing.T, n *Network, v Vantage, at time.Time, host string) outcome {
	t.Helper()
	res, err := n.DoSimple(v, at, http.MethodGet, "http://"+host+"/", "", nil)
	if err != nil {
		var ne *Error
		if !errors.As(err, &ne) {
			t.Fatalf("%s: unexpected error %v", host, err)
		}
		return outcome{kind: ne.Kind}
	}
	return outcome{status: res.Status}
}

// TestRuleIndexFirstMatchWins interleaves host and backend rules and
// checks that the rule installed first wins, for registered hosts (which
// see both indexes) and unregistered ones (host rules only).
func TestRuleIndexFirstMatchWins(t *testing.T) {
	paris := PaperVantages()[3]
	tcp := outcome{kind: FailTCP}
	dns := outcome{kind: FailDNS}
	tls := outcome{kind: FailTLS}
	ok := outcome{status: http.StatusOK}
	status := func(code int) outcome { return outcome{status: code} }
	type probe struct {
		host    string
		vantage Vantage
		at      time.Time
		want    outcome
	}
	cases := []struct {
		name   string
		rules  []Rule
		probes []probe
	}{
		{
			name: "backend before host",
			rules: []Rule{
				{Backend: "grp", Kind: FailTCP},
				{Host: "a.test", Kind: FailDNS},
			},
			probes: []probe{
				{"a.test", oregon(), t0, tcp},
				{"b.test", oregon(), t0, tcp},
				{"solo.test", oregon(), t0, ok},
			},
		},
		{
			name: "host before backend",
			rules: []Rule{
				{Host: "a.test", Kind: FailHTTP, HTTPStatus: http.StatusNotFound},
				{Backend: "grp", Kind: FailTCP},
			},
			probes: []probe{
				{"a.test", oregon(), t0, status(http.StatusNotFound)},
				{"b.test", oregon(), t0, tcp},
			},
		},
		{
			name: "vantage-scoped host rule falls through to a later backend rule",
			rules: []Rule{
				{Host: "a.test", Vantages: []string{"Seoul"}, Kind: FailDNS},
				{Backend: "grp", Vantages: []string{"Seoul", "Oregon"}, Kind: FailTLS},
				{Host: "a.test", Kind: FailHTTP, HTTPStatus: http.StatusBadGateway},
			},
			probes: []probe{
				{"a.test", seoul(), t0, dns},
				{"a.test", oregon(), t0, tls},
				{"a.test", paris, t0, status(http.StatusBadGateway)},
				{"b.test", paris, t0, ok},
			},
		},
		{
			name: "windowed backend rule ahead of a persistent host rule",
			rules: []Rule{
				{Backend: "grp", Windows: []Window{{From: t0, To: t0.Add(time.Hour)}}, Kind: FailTCP},
				{Host: "b.test", Kind: FailHTTP, HTTPStatus: http.StatusServiceUnavailable},
				{Backend: "grp", Windows: []Window{{From: t0.Add(4 * time.Hour)}}, Kind: FailDNS},
			},
			probes: []probe{
				{"b.test", oregon(), t0, tcp},
				{"b.test", oregon(), t0.Add(2 * time.Hour), status(http.StatusServiceUnavailable)},
				{"a.test", oregon(), t0.Add(2 * time.Hour), ok},
				{"a.test", oregon(), t0.Add(5 * time.Hour), dns},
			},
		},
		{
			name: "host and backend on one rule must both match",
			rules: []Rule{
				{Host: "a.test", Backend: "other", Kind: FailDNS},
				{Host: "a.test", Backend: "grp", Kind: FailTLS},
				{Backend: "other", Kind: FailTCP},
			},
			probes: []probe{
				{"a.test", oregon(), t0, tls},
				{"b.test", oregon(), t0, ok},
			},
		},
		{
			name: "unregistered hosts see host rules only",
			rules: []Rule{
				{Backend: "grp", Kind: FailHTTP},
				{Host: "ghost.test", Vantages: []string{"Seoul"}, Kind: FailTLS},
				{Host: "ghost.test", Backend: "grp", Kind: FailTCP},
			},
			probes: []probe{
				{"ghost.test", seoul(), t0, tls},
				{"ghost.test", oregon(), t0, dns}, // no rule matches: NXDOMAIN
				{"a.test", seoul(), t0, status(http.StatusInternalServerError)},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := New()
			n.RegisterHost("a.test", "grp", okHandler("ok"))
			n.RegisterHost("b.test", "grp", okHandler("ok"))
			n.RegisterHost("solo.test", "", okHandler("ok"))
			for i := range tc.rules {
				n.AddRule(&tc.rules[i])
			}
			for _, p := range tc.probes {
				if got := exchange(t, n, p.vantage, p.at, p.host); got != p.want {
					t.Errorf("%s from %s at %v: got %+v, want %+v", p.host, p.vantage.Name, p.at, got, p.want)
				}
			}
		})
	}
}

// TestRuleIndexMatchesLinearScan checks the index against the definition
// it replaces: the first rule, in installation order, whose matches
// reports true. Rules and exchanges are drawn from a fixed seed; most
// rules are windowed and vantage-scoped, so exchanges are decided by host
// rules, by backend rules ahead of matching host rules, and by no rule.
func TestRuleIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hosts := []string{"a.test", "b.test", "c.test", "d.test", "ghost.test"}
	backendOf := map[string]string{"a.test": "grp1", "b.test": "grp1", "c.test": "grp2", "d.test": ""}
	backendNames := []string{"grp1", "grp2", "d.test", "nowhere"}
	vantages := PaperVantages()
	n := New()
	for h, b := range backendOf {
		n.RegisterHost(h, b, okHandler("ok"))
	}
	var rules []*Rule
	for i := 0; i < 120; i++ {
		r := &Rule{Kind: FailureKind(1 + rng.Intn(4)), HTTPStatus: 500 + rng.Intn(4)}
		switch k := rng.Intn(10); {
		case k < 3:
			r.Host = hosts[rng.Intn(len(hosts))]
		case k < 7:
			r.Backend = backendNames[rng.Intn(len(backendNames))]
		case k < 9:
			r.Host = hosts[rng.Intn(len(hosts))]
			r.Backend = backendNames[rng.Intn(len(backendNames))]
		}
		if rng.Intn(3) > 0 {
			r.Vantages = []string{vantages[rng.Intn(len(vantages))].Name}
		}
		if rng.Intn(10) > 0 {
			from := t0.Add(time.Duration(rng.Intn(48)) * time.Hour)
			r.Windows = []Window{{From: from, To: from.Add(time.Duration(1+rng.Intn(6)) * time.Hour)}}
		}
		rules = append(rules, r)
		n.AddRule(r)
	}
	var byBackend int
	for i := 0; i < 2000; i++ {
		host := hosts[rng.Intn(len(hosts))]
		v := vantages[rng.Intn(len(vantages))]
		at := t0.Add(time.Duration(rng.Intn(50*60)) * time.Minute)
		backend, registered := backendOf[host]
		if registered && backend == "" {
			backend = host
		}
		want := outcome{status: http.StatusOK}
		if !registered {
			want = outcome{kind: FailDNS}
		}
		for _, r := range rules {
			if !r.matches(host, backend, v.Name, at) {
				continue
			}
			if r.Host == "" {
				byBackend++
			}
			if r.Kind == FailHTTP {
				want = outcome{status: r.HTTPStatus}
			} else {
				want = outcome{kind: r.Kind}
			}
			break
		}
		if got := exchange(t, n, v, at, host); got != want {
			t.Fatalf("%s from %s at %v: got %+v, want %+v", host, v.Name, at, got, want)
		}
	}
	if byBackend == 0 {
		t.Fatal("no exchange was decided by a backend rule")
	}
}

// TestLatencyHashMatchesKeyString pins latencyHash to the hash of the
// concatenated key it replaced, over every vantage, several hosts, and UTC
// and non-UTC instants, so the latency model (and every figure built on
// it) is unchanged; building no key, it must not allocate.
func TestLatencyHashMatchesKeyString(t *testing.T) {
	hosts := []string{"", "a.test", "ocsp.comodoca.test:8080", "statush.digitalcertvalidation.test"}
	zones := []*time.Location{
		time.UTC,
		time.FixedZone("IST", 5*3600+1800),
		time.FixedZone("PDT", -7*3600),
		time.FixedZone("LMT", 37),
	}
	instants := []time.Time{
		t0,
		t0.Add(19*time.Hour + 37*time.Minute + 5*time.Second),
		time.Date(2018, 9, 4, 23, 59, 59, 999, time.UTC),
		time.Date(1999, 12, 31, 23, 30, 0, 0, time.UTC),
	}
	n := New()
	for _, v := range PaperVantages() {
		for _, host := range hosts {
			for _, loc := range zones {
				for _, base := range instants {
					at := base.In(loc)
					want := hashx.Sum64(v.Name + "|" + host + "|" + at.Truncate(time.Hour).Format(time.RFC3339))
					if got := latencyHash(v.Name, host, at); got != want {
						t.Fatalf("latencyHash(%s, %q, %v) = %#x, want %#x", v.Name, host, at, got, want)
					}
					if got, want := n.latency(v, host, at), v.BaseRTT+time.Duration(want%20)*time.Millisecond; got != want {
						t.Fatalf("latency(%s, %q, %v) = %v, want %v", v.Name, host, at, got, want)
					}
				}
			}
		}
	}
	at := instants[1].In(zones[1])
	if allocs := testing.AllocsPerRun(100, func() { latencyHash("Sao-Paulo", hosts[3], at) }); allocs != 0 {
		t.Errorf("latencyHash allocates %v times per call, want 0", allocs)
	}
}
