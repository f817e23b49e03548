// Package metrics is the lightweight instrumentation registry behind the
// scan pipeline: lock-free counters and gauges plus HDR latency
// histograms (Hist) behind named timers, grouped in a Registry whose
// Snapshot renders deterministic, sorted text. It deliberately has no
// exporter dependencies — cmd/repro and cmd/ocspscan print snapshots
// directly, and campaigns surface them through scanner.Campaign.Stats().
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark (e.g. peak queue depth).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	// Clock supplies Timer's time source; nil means clock.Real. Tests
	// and simulated runs inject clock.Simulated so no registry user ever
	// reads the wall clock directly.
	Clock clock.Clock

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*timer
}

// timer is one named latency histogram. Its stop functions run on
// different goroutines (campaign round loops, store appends, core), and
// Hist is not safe for concurrent use, so a mutex guards it.
type timer struct {
	mu sync.Mutex
	h  Hist
}

// timeSource resolves the registry's clock, defaulting to the wall clock.
func (r *Registry) timeSource() clock.Clock {
	if r.Clock != nil {
		return r.Clock
	}
	return clock.Real{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*timer),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// timer returns the named timer histogram, creating it on first use.
func (r *Registry) timer(name string) *timer {
	r.mu.RLock()
	t := r.timers[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timers[name]; t == nil {
		t = &timer{}
		r.timers[name] = t
	}
	return t
}

// Timer starts an elapsed-time measurement against the registry's clock
// (wall clock unless one is injected); the returned stop function records
// the elapsed nanoseconds into the named histogram and returns the
// elapsed duration. It backs the per-experiment wall-time accounting in
// internal/core, the campaign engine's per-round histogram and the
// store's flush latency.
func (r *Registry) Timer(name string) func() time.Duration {
	t := r.timer(name)
	clk := r.timeSource()
	start := clk.Now()
	return func() time.Duration {
		d := clk.Now().Sub(start)
		t.mu.Lock()
		t.h.RecordDuration(d)
		t.mu.Unlock()
		return d
	}
}

// Snapshot captures every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]Hist, len(r.timers)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range r.timers {
		t.mu.Lock()
		s.Histograms[name] = t.h
		t.mu.Unlock()
	}
	return s
}

// Snapshot is a point-in-time copy of a Registry. Histograms holds a copy
// of each timer's histogram, in nanoseconds.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]Hist
}

// WriteTo renders the snapshot as sorted "name value" lines, one metric
// per line, so repeated runs produce byte-identical output.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var total int64
	write := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	for _, name := range sortedKeys(s.Counters) {
		if err := write("%s %d\n", name, s.Counters[name]); err != nil {
			return total, err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := write("%s %d\n", name, s.Gauges[name]); err != nil {
			return total, err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name] // Hist's methods need an addressable copy
		if err := write("%s %s\n", name, h.String()); err != nil {
			return total, err
		}
	}
	return total, nil
}

func (s Snapshot) String() string {
	var b strings.Builder
	s.WriteTo(&b)
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
