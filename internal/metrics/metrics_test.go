package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("scans")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("scans") != c {
		t.Error("same name must return the same counter")
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if g.Value() != 5 {
		t.Error("SetMax must not lower the gauge")
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Error("SetMax must raise the gauge")
	}
}

func TestTimer(t *testing.T) {
	clk := clock.NewSimulated(time.Date(2018, 4, 24, 0, 0, 0, 0, time.UTC))
	r := NewRegistry()
	r.Clock = clk
	for _, d := range []time.Duration{3 * time.Millisecond, time.Second, 250 * time.Microsecond} {
		stop := r.Timer("flush")
		clk.Advance(d)
		if got := stop(); got != d {
			t.Errorf("stop() = %v, want %v", got, d)
		}
	}
	h := r.Snapshot().Histograms["flush"]
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Min() != uint64(250*time.Microsecond) || h.Max() != uint64(time.Second) {
		t.Errorf("min/max = %v/%v, want 250µs/1s", time.Duration(h.Min()), time.Duration(h.Max()))
	}
	out := r.Snapshot().String()
	if !strings.Contains(out, "flush count=3 min=250µs p50=") || !strings.Contains(out, " max=1s\n") {
		t.Errorf("snapshot output:\n%s", out)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(int64(j))
				r.Timer("h")()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 999 {
		t.Errorf("gauge max = %d, want 999", got)
	}
	if h := r.Snapshot().Histograms["h"]; h.Count() != 8000 {
		t.Errorf("timer count = %d, want 8000", h.Count())
	}
}

func TestSnapshotRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_count").Add(2)
	r.Counter("a_count").Add(1)
	r.Gauge("depth").Set(3)
	r.Timer("lat")()
	out := r.Snapshot().String()
	// Sorted, deterministic output.
	ia, ib := strings.Index(out, "a_count 1"), strings.Index(out, "b_count 2")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("counters missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, "depth 3") || !strings.Contains(out, "lat count=1") {
		t.Errorf("snapshot output:\n%s", out)
	}
	if out != r.Snapshot().String() {
		t.Error("snapshot rendering must be deterministic")
	}
}
