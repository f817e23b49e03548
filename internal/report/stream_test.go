package report

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/census"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/store"
)

// streamFixture fills a store with rounds of synthetic observations and
// returns it plus the number of measured (non-canceled) records.
func streamFixture(t *testing.T, rounds, perRound int) (*store.Store, int) {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() }) //lint:allow errcheck-hot test cleanup
	start := time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)
	measured := 0
	for r := 0; r < rounds; r++ {
		at := start.Add(time.Duration(r) * time.Hour)
		obs := make([]scanner.Observation, 0, perRound)
		for i := 0; i < perRound; i++ {
			o := scanner.Observation{
				Vantage:   "vp",
				Responder: "ocsp.example.net",
				Domain:    "example.net",
				At:        at,
				Latency:   time.Duration(i) * time.Millisecond,
				Class:     scanner.ClassOK,
			}
			obs = append(obs, o)
			measured++
		}
		if err := s.AppendRound(at, obs); err != nil {
			t.Fatalf("AppendRound: %v", err)
		}
	}
	return s, measured
}

type countingAgg struct{ n int }

func (c *countingAgg) Add(scanner.Observation) { c.n++ }

func TestStreamInto(t *testing.T) {
	s, measured := streamFixture(t, 4, 8)
	avail := scanner.NewAvailabilitySeries(time.Hour)
	count := &countingAgg{}
	n, err := StreamInto(s.Reader(), avail, count)
	if err != nil {
		t.Fatalf("StreamInto: %v", err)
	}
	if n != measured || count.n != measured {
		t.Fatalf("streamed %d (agg saw %d), want %d", n, count.n, measured)
	}
	if got := len(avail.Vantages()); got != 1 {
		t.Fatalf("availability series saw %d vantages, want 1", got)
	}
}

func TestStreamIntoSkipsCanceled(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	at := time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)
	obs := []scanner.Observation{
		{Vantage: "vp", Responder: "r", At: at, Class: scanner.ClassOK},
		{Vantage: "vp", Responder: "r", At: at, Class: scanner.ClassCanceled},
		{Vantage: "vp", Responder: "r", At: at, Class: scanner.ClassOK},
	}
	if err := s.AppendRound(at, obs); err != nil {
		t.Fatalf("AppendRound: %v", err)
	}
	count := &countingAgg{}
	n, err := StreamInto(s.Reader(), count)
	if err != nil {
		t.Fatalf("StreamInto: %v", err)
	}
	if n != 2 || count.n != 2 {
		t.Fatalf("streamed %d (agg saw %d), want canceled lookups skipped", n, count.n)
	}
}

type countingCertAgg struct {
	n          int
	mustStaple int
}

func (c *countingCertAgg) AddCert(info census.CertInfo) {
	c.n++
	if info.MustStaple {
		c.mustStaple++
	}
}

// TestStreamCertsInto drives a streaming corpus through two aggregators
// and demands the record counts and the same fold Corpus.Stats makes.
func TestStreamCertsInto(t *testing.T) {
	cfg := census.CorpusConfig{Seed: 3, ScaleFactor: 20_000}
	corpus, err := census.NewCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromCorpus := census.NewStatsAccumulator(corpus.ScaleFactor())
	count := &countingCertAgg{}
	n, err := StreamCertsInto(corpus, fromCorpus, count)
	if err != nil {
		t.Fatalf("StreamCertsInto: %v", err)
	}
	want := corpus.NumRecords() + census.PaperMustStapleCerts
	if n != want || count.n != want {
		t.Fatalf("streamed %d (agg saw %d), want %d", n, count.n, want)
	}
	if count.mustStaple != census.PaperMustStapleCerts {
		t.Fatalf("aggregator saw %d Must-Staple records, want %d", count.mustStaple, census.PaperMustStapleCerts)
	}

	viaStats, err := corpus.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromCorpus.Stats(), viaStats) {
		t.Fatalf("StreamCertsInto fold %+v diverges from Corpus.Stats %+v", fromCorpus.Stats(), viaStats)
	}
}

// TestStreamIntoBoundedAllocations is the no-materialization guarantee:
// streaming a store through an aggregator allocates a small constant per
// record (decoded strings), never the whole store.
func TestStreamIntoBoundedAllocations(t *testing.T) {
	s, measured := streamFixture(t, 16, 64)
	count := &countingAgg{}
	r := s.Reader()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, err := StreamInto(r, count)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("StreamInto: %v", err)
	}
	if n != measured {
		t.Fatalf("streamed %d, want %d", n, measured)
	}
	perRecord := float64(after.Mallocs-before.Mallocs) / float64(n)
	if perRecord > 16 {
		t.Errorf("StreamInto allocates %.1f objects per record, want <= 16 (is something materializing the stream?)", perRecord)
	}
}
