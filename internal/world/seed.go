package world

import (
	"math/rand"
	"runtime"

	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/par"
)

// Child-seed derivation. Every construction phase owns an independent
// random stream derived from (Config.Seed, stream tag, index): per-phase
// tags keep the phases decoupled, and per-index seeds within a phase make
// each responder's (or consistency CA's) key material a pure function of
// (seed, index) — independent of build order, which is what lets the
// worker pool construct the fleet concurrently while staying bytewise
// identical to a serial build. See DESIGN.md §8.
const (
	streamSpecs uint64 = 1 + iota
	streamResponderCA
	streamEvents
	streamTargets
	streamConsistency
)

// childRNG returns the dedicated RNG for one (stream, index) cell, seeded
// by folding (seed, stream, index) through hashx.Mix: adjacent indices
// yield uncorrelated seeds.
func childRNG(seed int64, stream, index uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(hashx.Mix(uint64(seed), stream, index))))
}

// runParallel executes fn(i) for every i in [0, n) across the configured
// build worker pool. BuildWorkers == 1 degenerates to a plain in-order
// loop (the serial reference build); any other worker count produces the
// same world because each index derives its own random stream.
func (w *World) runParallel(n int, fn func(int)) {
	workers := w.Config.BuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par.For(n, workers, fn)
}
