package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/scanner"
)

var round0 = time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)

// obsAt builds a deterministic observation for round r, responder i,
// vantage j — distinct enough that stream comparisons catch reordering.
func obsAt(at time.Time, i, j int) scanner.Observation {
	o := fullObservation()
	o.At = at
	o.Responder = "ocsp" + string(rune('a'+i)) + ".example.net"
	o.Vantage = "vp-" + string(rune('0'+j))
	o.Serial = o.Responder + "-serial"
	o.Latency = time.Duration(i*10+j) * time.Millisecond
	return o
}

// appendRounds appends n rounds of perRound observations each, returning
// everything appended in stream order.
func appendRounds(t *testing.T, s *Store, n, perRound int) []scanner.Observation {
	t.Helper()
	var all []scanner.Observation
	for r := 0; r < n; r++ {
		at := round0.Add(time.Duration(r) * time.Hour)
		var obs []scanner.Observation
		for i := 0; i < perRound; i++ {
			obs = append(obs, obsAt(at, i, i%3))
		}
		if err := s.AppendRound(at, obs); err != nil {
			t.Fatalf("AppendRound(%v): %v", at, err)
		}
		all = append(all, obs...)
	}
	return all
}

func collectStream(t *testing.T, s *Store) []scanner.Observation {
	t.Helper()
	var out []scanner.Observation
	if err := s.Reader().Scan(func(o scanner.Observation) error {
		out = append(out, o)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func countFiles(t *testing.T, dir, suffix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			n++
		}
	}
	return n
}

func TestOpenEmpty(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Records != 0 || st.Rounds != 0 || st.Segments != 1 || st.HasCheckpoint {
		t.Fatalf("empty store stats = %+v", st)
	}
	if got := collectStream(t, s); len(got) != 0 {
		t.Fatalf("empty store streamed %d observations", len(got))
	}
	if _, ok := s.LastCheckpoint(); ok {
		t.Fatal("empty store reported a checkpoint")
	}
}

func TestAppendReadReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := appendRounds(t, s, 3, 4)
	if got := collectStream(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("live stream mismatch: got %d obs, want %d", len(got), len(want))
	}
	st := s.Stats()
	if st.Records != 12 || st.Rounds != 3 {
		t.Fatalf("stats = %+v, want 12 records over 3 rounds", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := collectStream(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened stream mismatch: got %d obs, want %d", len(got), len(want))
	}
	if st := s2.Stats(); st.Records != 12 || st.Rounds != 3 {
		t.Fatalf("reopened stats = %+v", st)
	}
	// Appends continue seamlessly after a reopen.
	at := round0.Add(3 * time.Hour)
	extra := []scanner.Observation{obsAt(at, 0, 0)}
	if err := s2.AppendRound(at, extra); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	want = append(want, extra...)
	if got := collectStream(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatal("stream mismatch after reopen-append")
	}
}

func TestAppendClosed(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.AppendRound(round0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed store = %v, want ErrClosed", err)
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 512, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := appendRounds(t, s, 6, 5)
	segs := s.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	for i, seg := range segs[:len(segs)-1] {
		if seg.Bytes < 512 {
			t.Fatalf("sealed segment %d is under the rotation threshold (%d bytes)", i, seg.Bytes)
		}
	}
	if got := collectStream(t, s); !reflect.DeepEqual(got, want) {
		t.Fatal("multi-segment stream mismatch")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Options{SegmentSize: 512, NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := collectStream(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatal("multi-segment stream mismatch after reopen")
	}
}

func TestMonotonicRounds(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	appendRounds(t, s, 2, 1)
	last := round0.Add(time.Hour)
	if err := s.AppendRound(last, nil); err == nil {
		t.Fatal("re-appending the last round succeeded")
	}
	if err := s.AppendRound(round0, nil); err == nil {
		t.Fatal("appending an earlier round succeeded")
	}
	// The monotonicity failure is not sticky — the round was never
	// started, so later valid rounds still append.
	if err := s.AppendRound(last.Add(time.Hour), nil); err != nil {
		t.Fatalf("valid append after monotonicity error: %v", err)
	}
}

func TestCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	appendRounds(t, s, 5, 2)
	if n := countFiles(t, dir, ckptKind.suffix); n != 2 {
		t.Fatalf("%d checkpoint files on disk, want 2 (newest plus one predecessor)", n)
	}
	ck, ok := s.LastCheckpoint()
	if !ok {
		t.Fatal("no checkpoint after 5 rounds")
	}
	if want := round0.Add(4 * time.Hour).UnixNano(); ck.Round != want || ck.Rounds != 5 || ck.Scans != 10 {
		t.Fatalf("checkpoint = %+v, want round %d, 5 rounds, 10 scans", ck, want)
	}
}

func TestCheckpointEvery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CheckpointEvery: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	appendRounds(t, s, 7, 1)
	ck, ok := s.LastCheckpoint()
	if !ok {
		t.Fatal("no checkpoint after 7 rounds")
	}
	// Rounds 3 and 6 checkpoint; round 7 is ahead of the checkpoint.
	if ck.Rounds != 6 {
		t.Fatalf("checkpoint covers %d rounds, want 6", ck.Rounds)
	}
}

func TestCheckpointPayload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.SetCheckpointPayload(func() []byte { return []byte("engine snapshot") })
	appendRounds(t, s, 1, 1)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	ck, ok := s2.LastCheckpoint()
	if !ok || string(ck.Payload) != "engine snapshot" {
		t.Fatalf("checkpoint payload = %q, ok=%v", ck.Payload, ok)
	}
}

func TestEmptyRoundsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendRounds(t, s, 1, 2)
	for r := 1; r <= 3; r++ {
		// Rounds where every target had expired: no observations, but
		// the round still counts toward resume accounting.
		if err := s.AppendRound(round0.Add(time.Duration(r)*time.Hour), nil); err != nil {
			t.Fatalf("empty round %d: %v", r, err)
		}
	}
	if st := s.Stats(); st.Rounds != 4 || st.Records != 2 {
		t.Fatalf("stats = %+v, want 4 rounds / 2 records", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Options{NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Rounds != 4 || st.Records != 2 {
		t.Fatalf("reopened stats = %+v, want 4 rounds / 2 records (checkpoint carries empty rounds)", st)
	}
	// The empty rounds advanced the high-water mark: re-appending the
	// last (empty) round must fail, the next round must succeed.
	if err := s2.AppendRound(round0.Add(3*time.Hour), nil); err == nil {
		t.Fatal("re-appending the last empty round succeeded after reopen")
	}
	if err := s2.AppendRound(round0.Add(4*time.Hour), nil); err != nil {
		t.Fatalf("append past restored high-water mark: %v", err)
	}
}

func TestTruncateAfter(t *testing.T) {
	dir := t.TempDir()
	// Small segments so truncation crosses file boundaries.
	s, err := Open(dir, Options{SegmentSize: 512, NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	all := appendRounds(t, s, 6, 4)
	cut := round0.Add(2 * time.Hour) // keep rounds 0..2
	if err := s.TruncateAfter(cut.UnixNano()); err != nil {
		t.Fatalf("TruncateAfter: %v", err)
	}
	want := all[:3*4]
	if got := collectStream(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-truncate stream has %d obs, want %d", len(collectStream(t, s)), len(want))
	}
	st := s.Stats()
	if st.Records != 12 {
		t.Fatalf("post-truncate stats = %+v, want 12 records", st)
	}
	if st.HasCheckpoint && st.Checkpoint.Round > cut.UnixNano() {
		t.Fatalf("surviving checkpoint %+v is past the cut", st.Checkpoint)
	}
	// The store keeps working after a truncation.
	at := cut.Add(time.Hour)
	extra := []scanner.Observation{obsAt(at, 9, 1)}
	if err := s.AppendRound(at, extra); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	if got := collectStream(t, s); !reflect.DeepEqual(got, append(want, extra...)) {
		t.Fatal("stream mismatch after truncate-append")
	}
}

func TestRecoveryTornTailCorpus(t *testing.T) {
	// Build a single-segment store with no checkpoints, then replay every
	// possible torn-tail length — including a header cut short, which a
	// crash between creating a segment and writing its header leaves —
	// and check recovery keeps exactly the records that were fully
	// written and counts every byte it drops.
	src := t.TempDir()
	s, err := Open(src, Options{NoSync: true, CheckpointEvery: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	all := appendRounds(t, s, 3, 3)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full, err := os.ReadFile(filepath.Join(src, obsKind.name(0)))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, obsKind, full)
	if len(ends) != len(all) {
		t.Fatalf("scan saw %d records, appended %d", len(ends), len(all))
	}

	for cut := int64(0); cut < int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, obsKind.name(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		intact := 0
		for _, end := range ends {
			if end <= cut {
				intact++
			}
		}
		// kept is what recovery leaves of the torn file: nothing when
		// the header itself is torn (Open then starts a fresh segment).
		var kept int64
		switch {
		case intact > 0:
			kept = ends[intact-1]
		case cut >= segHeaderSize:
			kept = segHeaderSize
		}
		reg := metrics.NewRegistry()
		s2, err := Open(dir, Options{NoSync: true, Metrics: reg})
		if err != nil {
			t.Fatalf("cut=%d: Open after torn tail: %v", cut, err)
		}
		want := all[:intact]
		if intact == 0 {
			want = nil
		}
		got := collectStream(t, s2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut=%d: recovered %d obs, want the first %d", cut, len(got), intact)
		}
		if n := reg.Snapshot().Counters["store_recovered_truncated_bytes_total"]; n != cut-kept {
			t.Fatalf("cut=%d: recovery counted %d truncated bytes, want %d", cut, n, cut-kept)
		}
		info, err := os.Stat(filepath.Join(dir, obsKind.name(0)))
		if err != nil {
			t.Fatal(err)
		}
		if wantSize := max(kept, segHeaderSize); info.Size() != wantSize {
			t.Fatalf("cut=%d: segment is %d bytes after recovery, want %d", cut, info.Size(), wantSize)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
	}
}

// TestOpenRejectsForeignFinalSegment: only a strict prefix of the
// expected header is a torn write; any other short or mislabelled final
// segment is not something a crash leaves, so Open refuses it.
func TestOpenRejectsForeignFinalSegment(t *testing.T) {
	wrongMagic, wrongIndex, otherKind := obsKind.header(0), obsKind.header(1), reportKind.header(0)
	copy(wrongMagic[:], "MSXXXXX1")
	for name, data := range map[string][]byte{
		"wrong magic":          wrongMagic[:],
		"short, not a prefix":  []byte("garbage"),
		"prefix, wrong index":  wrongIndex[:14],
		"header of other kind": otherKind[:],
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, obsKind.name(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir, Options{NoSync: true}); err == nil {
			s.Close()
			t.Errorf("%s: Open succeeded", name)
		}
	}
}

func TestRecoveryCorruptFinalRecord(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src, Options{NoSync: true, CheckpointEvery: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	all := appendRounds(t, s, 2, 2)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reg := metrics.NewRegistry()
	segPath := filepath.Join(src, obsKind.name(0))
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF // flip a payload byte of the final record
	if err := os.WriteFile(segPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(src, Options{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatalf("Open after corrupt final record: %v", err)
	}
	defer s2.Close()
	if got := collectStream(t, s2); !reflect.DeepEqual(got, all[:len(all)-1]) {
		t.Fatalf("recovered %d obs, want %d (only the corrupted record lost)", len(got), len(all)-1)
	}
	if n := reg.Snapshot().Counters["store_recovered_truncated_bytes_total"]; n == 0 {
		t.Fatal("recovery did not count truncated bytes")
	}
}

func TestMidStreamCorruptionIsFatal(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src, Options{SegmentSize: 512, NoSync: true, CheckpointEvery: 1 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendRounds(t, s, 6, 5)
	if len(s.Segments()) < 2 {
		t.Fatal("test needs at least two segments")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Corrupt a record in the FIRST segment: that data is supposed to be
	// sealed and durable, so recovery must refuse rather than silently
	// dropping everything after it.
	segPath := filepath.Join(src, obsKind.name(0))
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-10] ^= 0xFF
	if err := os.WriteFile(segPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(src, Options{SegmentSize: 512, NoSync: true}); err == nil {
		t.Fatal("Open succeeded with mid-stream corruption in a sealed segment")
	}
}

func TestCheckpointCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendRounds(t, s, 3, 1)
	ck, _ := s.LastCheckpoint()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Corrupt the newest checkpoint; the predecessor must take over.
	newest := filepath.Join(dir, ckptKind.name(ck.Seq))
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got, ok := s2.LastCheckpoint()
	if !ok || got.Seq != ck.Seq-1 || got.Rounds != ck.Rounds-1 {
		t.Fatalf("fallback checkpoint = %+v ok=%v, want seq %d", got, ok, ck.Seq-1)
	}
	// Sequence numbers are never reused, even past a corrupt file.
	if err := s2.AppendRound(round0.Add(10*time.Hour), nil); err != nil {
		t.Fatalf("append: %v", err)
	}
	next, _ := s2.LastCheckpoint()
	if next.Seq <= ck.Seq {
		t.Fatalf("new checkpoint seq %d does not supersede the corrupt one (%d)", next.Seq, ck.Seq)
	}
}

func TestCrashFailpoint(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := Open(dir, Options{CheckpointEvery: 1, CrashAfterRounds: 2, Metrics: reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	round1 := appendRounds(t, s, 1, 4)
	at := round0.Add(time.Hour)
	var obs []scanner.Observation
	for i := 0; i < 4; i++ {
		obs = append(obs, obsAt(at, i, 0))
	}
	if err := s.AppendRound(at, obs); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("failpoint round returned %v, want ErrSimulatedCrash", err)
	}
	// The failure is sticky: the store refuses to extend a torn round.
	if err := s.AppendRound(at.Add(time.Hour), nil); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("append after crash returned %v, want sticky ErrSimulatedCrash", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the torn record is truncated, the half round survives as
	// committed records, and the checkpoint still describes round 1.
	s2, err := Open(dir, Options{CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s2.Close()
	ck, ok := s2.LastCheckpoint()
	if !ok {
		t.Fatal("no checkpoint after crash")
	}
	if ck.Round != round0.UnixNano() || ck.Rounds != 1 || ck.Scans != 4 {
		t.Fatalf("checkpoint after crash = %+v, want round 1 only", ck)
	}
	if st := s2.Stats(); st.Records != 4+2 {
		t.Fatalf("log holds %d records, want 4 committed + 2 from the half round", st.Records)
	}
	// The resume path: cut back to the checkpoint, leaving exactly the
	// fully persisted rounds.
	if err := s2.TruncateAfter(ck.Round); err != nil {
		t.Fatalf("TruncateAfter: %v", err)
	}
	if got := collectStream(t, s2); !reflect.DeepEqual(got, round1) {
		t.Fatalf("post-resume stream has %d obs, want round 1's %d", len(got), len(round1))
	}
	if st := s2.Stats(); st.Rounds != 1 || st.Records != 4 {
		t.Fatalf("post-resume stats = %+v", st)
	}
}

func TestReaderSnapshotIsolation(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	want := appendRounds(t, s, 2, 2)
	r := s.Reader()
	at := round0.Add(5 * time.Hour)
	if err := s.AppendRound(at, []scanner.Observation{obsAt(at, 0, 0)}); err != nil {
		t.Fatalf("append: %v", err)
	}
	var got []scanner.Observation
	if err := r.Scan(func(o scanner.Observation) error {
		got = append(got, o)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot saw %d obs, want the %d present at snapshot time", len(got), len(want))
	}
}

func TestReaderErrStop(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	appendRounds(t, s, 2, 3)
	n := 0
	if err := s.Reader().Scan(func(scanner.Observation) error {
		n++
		if n == 2 {
			return ErrStop
		}
		return nil
	}); err != nil {
		t.Fatalf("Scan with ErrStop returned %v", err)
	}
	if n != 2 {
		t.Fatalf("scan visited %d records after ErrStop, want 2", n)
	}
}

func TestStoreMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := Open(t.TempDir(), Options{SegmentSize: 512, NoSync: true, CheckpointEvery: 1, Metrics: reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	appendRounds(t, s, 4, 4)
	snap := reg.Snapshot()
	if got := snap.Counters["store_records_appended_total"]; got != 16 {
		t.Fatalf("records counter = %d, want 16", got)
	}
	if got := snap.Counters["store_rounds_appended_total"]; got != 4 {
		t.Fatalf("rounds counter = %d, want 4", got)
	}
	if got := snap.Counters["store_checkpoints_written_total"]; got != 4 {
		t.Fatalf("checkpoints counter = %d, want 4", got)
	}
	if got := snap.Gauges["store_segments"]; got < 2 {
		t.Fatalf("segments gauge = %d, want >= 2 after rotation", got)
	}
	if got := snap.Gauges["store_bytes"]; got == 0 {
		t.Fatal("bytes gauge is zero")
	}
	if h := snap.Histograms["store_flush_seconds"]; h.Count() == 0 {
		t.Fatal("flush latency histogram is empty")
	}
}
