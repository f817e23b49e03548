package store

import (
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/scanner"
)

// buildFragmented writes a store with a small rotation threshold so many
// tiny sealed segments pile up, then closes it. Reopening with the normal
// (larger) threshold leaves those segments under-full — the shape Compact
// exists to clean up.
func buildFragmented(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 512, NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendRounds(t, s, 8, 4)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

func TestCompactMergesAndPreservesStream(t *testing.T) {
	dir := buildFragmented(t)
	s, err := Open(dir, Options{SegmentSize: 16 << 10, NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	before := collectStream(t, s)
	segsBefore := len(s.Segments())
	if segsBefore < 4 {
		t.Fatalf("fixture produced only %d segments; compaction needs several", segsBefore)
	}
	ckptsBefore := countFiles(t, dir, ckptKind.suffix)
	if ckptsBefore < 2 {
		t.Fatalf("fixture holds %d checkpoints, want at least 2", ckptsBefore)
	}

	st, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.SegmentsMerged < 2 {
		t.Fatalf("Compact merged %d segments, want >= 2", st.SegmentsMerged)
	}
	if st.CheckpointsDropped != ckptsBefore-1 {
		t.Fatalf("Compact dropped %d checkpoints, want %d", st.CheckpointsDropped, ckptsBefore-1)
	}
	if got := len(s.Segments()); got >= segsBefore {
		t.Fatalf("still %d segments after compaction (was %d)", got, segsBefore)
	}
	if n := countFiles(t, dir, ckptKind.suffix); n != 1 {
		t.Fatalf("%d checkpoint files after compaction, want 1", n)
	}

	// The observation stream is exactly what it was.
	if after := collectStream(t, s); !reflect.DeepEqual(after, before) {
		t.Fatalf("stream changed: %d obs before, %d after", len(before), len(after))
	}

	// The store keeps appending and a reopen sees the merged layout.
	extra := round0.Add(100 * time.Hour)
	if err := s.AppendRound(extra, []scanner.Observation{obsAt(extra, 0, 0)}); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
}

func TestCompactSurvivesReopen(t *testing.T) {
	dir := buildFragmented(t)
	s, err := Open(dir, Options{SegmentSize: 16 << 10, NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	before := collectStream(t, s)
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Options{SegmentSize: 16 << 10, NoSync: true})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s2.Close()
	if got := collectStream(t, s2); !reflect.DeepEqual(got, before) {
		t.Fatalf("stream changed across compaction+reopen: %d vs %d obs", len(got), len(before))
	}
}

func TestCompactNoopWhenAlreadyCompact(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	appendRounds(t, s, 3, 2)
	before := collectStream(t, s)
	st, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.SegmentsMerged != 0 {
		t.Fatalf("Compact on a single-segment store merged %d segments", st.SegmentsMerged)
	}
	if got := collectStream(t, s); !reflect.DeepEqual(got, before) {
		t.Fatal("noop compaction changed the stream")
	}
}
