package scanner

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/netsim"
)

// memSink is an in-memory RoundSink recording every AppendRound call.
type memSink struct {
	ats []time.Time
	obs [][]Observation
	// failAt makes the failAt-th AppendRound (1-based) return an error.
	failAt int
}

var errSinkBoom = errors.New("sink: boom")

func (m *memSink) AppendRound(at time.Time, obs []Observation) error {
	if m.failAt > 0 && len(m.ats)+1 >= m.failAt {
		return errSinkBoom
	}
	m.ats = append(m.ats, at)
	// The RoundSink contract: obs is only valid during the call.
	m.obs = append(m.obs, append([]Observation(nil), obs...))
	return nil
}

// replaySource streams the sink's recorded rounds back, in order.
func (m *memSink) replay(fn func(Observation) error) error {
	for _, round := range m.obs {
		for _, o := range round {
			if err := fn(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// lines renders every persisted observation as its canonical line, in
// persisted order.
func (m *memSink) lines() []string {
	var out []string
	for _, round := range m.obs {
		for _, o := range round {
			out = append(out, o.CanonicalLine())
		}
	}
	return out
}

// engineVariants are the two worker layouts the sink and replay tests run
// the campaign under. "barrier" has one worker, so a round's lookups run
// one after another, in job order, on Run's goroutine. "pipelined" has
// eight, so a round's lookups are in flight together and finish out of
// order, and Run must still persist and fold each round whole and in job
// order.
func engineVariants() map[string][]Option {
	return map[string][]Option{
		"barrier":   {WithWorkers(1)},
		"pipelined": {WithWorkers(8)},
	}
}

func TestCampaignSinkReceivesEveryRound(t *testing.T) {
	for name, extra := range engineVariants() {
		t.Run(name, func(t *testing.T) {
			f := newFleet(t)
			sink := &memSink{}
			camp := f.campaign(t, 6, append(extra, WithStore(sink))...)
			n, err := camp.Run(context.Background(), NewAvailabilitySeries(time.Hour))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(sink.ats) != 6 {
				t.Fatalf("sink saw %d rounds, want 6", len(sink.ats))
			}
			persisted := 0
			for i, at := range sink.ats {
				if want := t0.Add(time.Duration(i) * time.Hour); !at.Equal(want) {
					t.Fatalf("round %d persisted at %v, want %v (in order)", i, at, want)
				}
				for _, o := range sink.obs[i] {
					if o.Class == ClassCanceled {
						t.Fatal("canceled lookup reached the sink")
					}
					if !o.At.Equal(at) {
						t.Fatalf("observation at %v persisted under round %v", o.At, at)
					}
				}
				persisted += len(sink.obs[i])
			}
			if persisted != n {
				t.Fatalf("sink persisted %d observations, engine aggregated %d", persisted, n)
			}
		})
	}
}

func TestCampaignSinkEmptyRoundsPersisted(t *testing.T) {
	for name, extra := range engineVariants() {
		t.Run(name, func(t *testing.T) {
			f := newFleet(t)
			// Every certificate expires two hours in: rounds 2..5 are
			// empty but must still reach the sink as round markers.
			for i := range f.targets {
				f.targets[i].Expiry = t0.Add(2 * time.Hour)
			}
			sink := &memSink{}
			camp := f.campaign(t, 6, append(extra, WithStore(sink), WithTargets(f.targets...))...)
			if _, err := camp.Run(context.Background(), NewAvailabilitySeries(time.Hour)); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(sink.ats) != 6 {
				t.Fatalf("sink saw %d rounds, want all 6 including empty ones", len(sink.ats))
			}
			for i := 3; i < 6; i++ {
				if len(sink.obs[i]) != 0 {
					t.Fatalf("round %d should be empty, has %d observations", i, len(sink.obs[i]))
				}
			}
		})
	}
}

func TestCampaignSinkErrorStopsRun(t *testing.T) {
	for name, extra := range engineVariants() {
		t.Run(name, func(t *testing.T) {
			f := newFleet(t)
			sink := &memSink{failAt: 3}
			camp := f.campaign(t, 24, append(extra, WithStore(sink))...)
			_, err := camp.Run(context.Background(), NewAvailabilitySeries(time.Hour))
			if !errors.Is(err, errSinkBoom) {
				t.Fatalf("Run error = %v, want the sink error", err)
			}
			st := camp.Stats()
			if st.Rounds >= 24 {
				t.Fatalf("campaign ran all %d rounds past a sink failure", st.Rounds)
			}
		})
	}
}

func TestCampaignSinkSkipsCanceledRound(t *testing.T) {
	f := newFleet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ct := &cancelingTransport{inner: f.net, after: 70, cancel: cancel}
	sink := &memSink{}
	camp, err := NewCampaign(&Client{Transport: ct}, f.clk,
		WithTargets(f.targets...),
		WithWindow(t0, t0.Add(24*time.Hour)),
		WithStride(time.Hour),
		WithWorkers(4),
		WithStore(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(ctx, NewAvailabilitySeries(time.Hour)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	// A round cut short by cancellation is not a complete measurement;
	// nothing from it may be persisted.
	perRound := len(f.targets) * len(netsim.PaperVantages())
	for i, obs := range sink.obs {
		if len(obs) != perRound {
			t.Fatalf("sink round %d holds %d observations, want %d (whole rounds only)", i, len(obs), perRound)
		}
		for _, o := range obs {
			if o.Class == ClassCanceled {
				t.Fatal("canceled lookup persisted")
			}
		}
	}
}

// TestCampaignReplayEquivalence is the resume contract at the engine
// level: persisting the first half of a campaign, then replaying it into a
// fresh campaign that scans only the second half, must reproduce the
// uninterrupted run's aggregates, totals, and stats exactly.
func TestCampaignReplayEquivalence(t *testing.T) {
	for name, extra := range engineVariants() {
		t.Run(name, func(t *testing.T) {
			full := runEngine(t, 24, nil, extra...)

			// First half, persisted.
			fHalf := newFleet(t)
			sink := &memSink{}
			firstOpts := append(append([]Option{}, extra...),
				WithStore(sink),
				WithWindow(t0, t0.Add(12*time.Hour)),
			)
			firstCamp := fHalf.campaign(t, 12, firstOpts...)
			if _, err := firstCamp.Run(context.Background(), NewAvailabilitySeries(time.Hour)); err != nil {
				t.Fatalf("first half: %v", err)
			}
			if len(sink.ats) != 12 {
				t.Fatalf("first half persisted %d rounds, want 12", len(sink.ats))
			}

			// Second half: replay the persisted prefix, then scan on.
			fResume := newFleet(t)
			avail := NewAvailabilitySeries(time.Hour)
			u := NewUnusableSeries(time.Hour)
			q := NewQualityAggregator()
			ra := NewResponderAvailability()
			lat := NewLatencyAggregator()
			di := NewDomainImpact(time.Hour, 3)
			resumeOpts := append(append([]Option{}, extra...),
				WithReplay(sink.replay, int64(len(sink.ats))),
				WithWindow(t0.Add(12*time.Hour), t0.Add(24*time.Hour)),
			)
			resumeCamp := fResume.campaign(t, 24, resumeOpts...)
			n, err := resumeCamp.Run(context.Background(), avail, u, q, ra, lat, di)
			if err != nil {
				t.Fatalf("resumed half: %v", err)
			}
			if n != full.n {
				t.Fatalf("resumed run aggregated %d lookups, uninterrupted %d", n, full.n)
			}
			if fp := fingerprint(avail, u, q, ra, lat, di); fp != full.fp {
				t.Errorf("resumed aggregates diverge from uninterrupted run\n--- uninterrupted ---\n%s--- resumed ---\n%s", full.fp, fp)
			}
			st, fullSt := resumeCamp.Stats(), full.st
			if st.Scans != fullSt.Scans || st.Rounds != fullSt.Rounds ||
				st.Retries != fullSt.Retries || st.Salvaged != fullSt.Salvaged {
				t.Errorf("resumed stats %+v diverge from uninterrupted %+v", st, fullSt)
			}
			for class, want := range fullSt.ByClass {
				if st.ByClass[class] != want {
					t.Errorf("class %s: resumed %d, uninterrupted %d", class, st.ByClass[class], want)
				}
			}
		})
	}
}

// TestCampaignShardingEquivalence: a campaign window cut into consecutive
// shards, each run as its own campaign over a freshly built world that
// replays every round the earlier shards persisted and then persists its
// own, must reproduce the uninterrupted run. The last shard's aggregates,
// lookup count and stats must equal the uninterrupted run's, and the
// shards together must persist the same rounds and the same stream.
func TestCampaignShardingEquivalence(t *testing.T) {
	const hours, shardHours = 36, 12
	fullSink := &memSink{}
	full := runEngine(t, hours, nil, WithStore(fullSink))
	if len(fullSink.ats) != hours {
		t.Fatalf("uninterrupted run persisted %d rounds, want %d", len(fullSink.ats), hours)
	}

	sink := &memSink{}
	var last engineRun
	for from := 0; from < hours; from += shardHours {
		last = runEngine(t, hours, nil,
			WithStore(sink),
			WithReplay(sink.replay, int64(len(sink.ats))),
			WithWindow(t0.Add(time.Duration(from)*time.Hour), t0.Add(time.Duration(from+shardHours)*time.Hour)),
		)
		if want := from + shardHours; len(sink.ats) != want {
			t.Fatalf("after the shard from hour %d, %d rounds persisted, want %d", from, len(sink.ats), want)
		}
	}
	if last.n != full.n {
		t.Fatalf("sharded run aggregated %d lookups, uninterrupted %d", last.n, full.n)
	}
	if last.fp != full.fp {
		t.Errorf("sharded aggregates diverge from uninterrupted run\n--- uninterrupted ---\n%s--- sharded ---\n%s", full.fp, last.fp)
	}
	sameStats(t, "sharded against uninterrupted", full.st, last.st)
	for i, at := range sink.ats {
		if !at.Equal(fullSink.ats[i]) {
			t.Fatalf("round %d persisted at %v, uninterrupted at %v", i, at, fullSink.ats[i])
		}
	}
	sameLines(t, "sharded stream against uninterrupted", fullSink.lines(), sink.lines())
}

// TestCampaignReplayErrorSurfaces: a broken replay source fails the run
// before any scanning happens.
func TestCampaignReplayErrorSurfaces(t *testing.T) {
	errReplay := errors.New("replay: torn")
	for name, extra := range engineVariants() {
		t.Run(name, func(t *testing.T) {
			f := newFleet(t)
			opts := append(append([]Option{}, extra...),
				WithReplay(func(func(Observation) error) error { return errReplay }, 3),
			)
			camp := f.campaign(t, 6, opts...)
			if _, err := camp.Run(context.Background(), NewAvailabilitySeries(time.Hour)); !errors.Is(err, errReplay) {
				t.Fatalf("Run error = %v, want the replay error", err)
			}
		})
	}
}
