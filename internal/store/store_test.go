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

// lastCheckpoint is the store's commit point as Stats reports it.
func lastCheckpoint(s *Store) (Checkpoint, bool) {
	st := s.Stats()
	return st.Checkpoint, st.HasCheckpoint
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

// TestReopenKeepsEmptyActiveSegment: Open starts a fresh segment when the
// last one is full. Reopening a store that ends in such a header-only
// segment keeps it and cuts nothing.
func TestReopenKeepsEmptyActiveSegment(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentSize: 512, NoSync: true}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := appendRounds(t, s, 1, 4)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < 2; i++ {
		reg := metrics.NewRegistry()
		opt.Metrics = reg
		s, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("reopen %d: %v", i, err)
		}
		segs := s.Segments()
		if len(segs) != 2 || segs[1].Bytes != segHeaderSize {
			t.Fatalf("reopen %d: segments %+v, want the full one and a header-only one", i, segs)
		}
		if n := reg.Snapshot().Counters["store_recovered_truncated_bytes_total"]; n != 0 {
			t.Fatalf("reopen %d: Open cut %d bytes of a cleanly closed store", i, n)
		}
		if got := collectStream(t, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen %d: stream has %d obs, want %d", i, len(got), len(want))
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
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
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	appendRounds(t, s, 5, 2)
	if n := countFiles(t, dir, ckptKind.suffix); n != 2 {
		t.Fatalf("%d checkpoint files on disk, want 2 (newest plus one predecessor)", n)
	}
	ck, ok := lastCheckpoint(s)
	if !ok {
		t.Fatal("no checkpoint after 5 rounds")
	}
	if want := round0.Add(4 * time.Hour).UnixNano(); ck.Round != want || ck.Rounds != 5 || ck.Scans != 10 {
		t.Fatalf("checkpoint = %+v, want round %d, 5 rounds, 10 scans", ck, want)
	}
}

func TestCheckpointPayload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
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
	ck, ok := lastCheckpoint(s2)
	if !ok || string(ck.Payload) != "engine snapshot" {
		t.Fatalf("checkpoint payload = %q, ok=%v", ck.Payload, ok)
	}
}

func TestEmptyRoundsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
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

	s2, err := Open(dir, Options{NoSync: true})
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

// TestOpenRollsBackToCheckpoint: the newest intact checkpoint is the
// commit point. With the newest one gone, Open cuts the last round, in
// the middle of one segment and all of the next, and counts every byte it
// drops; appends then carry on from the surviving checkpoint.
func TestOpenRollsBackToCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Small segments so the cut crosses file boundaries.
	s, err := Open(dir, Options{SegmentSize: 512, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	all := appendRounds(t, s, 6, 3)
	ck, _ := lastCheckpoint(s)
	last := round0.Add(5 * time.Hour).UnixNano()
	var before, kept int64
	var straddles, whole bool // the last round starts mid-segment and fills one
	for _, seg := range s.Segments() {
		before += seg.Bytes
		straddles = straddles || (seg.FirstAt < last && seg.LastAt == last)
		whole = whole || (seg.FirstAt == last && seg.Records > 0)
	}
	if !straddles || !whole {
		t.Fatalf("fixture's last round does not span a segment boundary: %+v", s.Segments())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, ckptKind.name(ck.Seq))); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	s2, err := Open(dir, Options{SegmentSize: 512, NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	want := all[:5*3]
	if got := collectStream(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened stream has %d obs, want the first 5 rounds' %d", len(got), len(want))
	}
	st := s2.Stats()
	if st.Rounds != 5 || st.Records != 15 || st.Checkpoint.Seq != ck.Seq-1 {
		t.Fatalf("reopened stats = %+v, want 5 rounds, 15 records, checkpoint %d", st, ck.Seq-1)
	}
	for _, seg := range s2.Segments() {
		if seg.Records > 0 {
			kept += seg.Bytes
		}
	}
	if n := reg.Snapshot().Counters["store_recovered_truncated_bytes_total"]; n != before-kept {
		t.Fatalf("Open counted %d cut bytes, want %d", n, before-kept)
	}
	// The store keeps working after the rollback.
	at := round0.Add(5 * time.Hour)
	extra := []scanner.Observation{obsAt(at, 9, 1)}
	if err := s2.AppendRound(at, extra); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if got := collectStream(t, s2); !reflect.DeepEqual(got, append(want, extra...)) {
		t.Fatal("stream mismatch after rollback-append")
	}
}

func TestRecoveryTornTailCorpus(t *testing.T) {
	// Build a single-segment store of three committed rounds, then replay
	// every cut of its segment — including a header cut short, which a
	// crash between creating a segment and writing its header leaves —
	// against two commit points: no checkpoint, and the first two rounds'
	// checkpoint. A cut inside a committed record is damage; any later cut
	// keeps exactly the committed records and counts every byte dropped.
	src := t.TempDir()
	s, err := Open(src, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	all := appendRounds(t, s, 3, 3)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full := mustRead(t, filepath.Join(src, obsKind.name(0)))
	ends := frameEnds(t, obsKind, full)
	if len(ends) != len(all) {
		t.Fatalf("scan saw %d records, appended %d", len(ends), len(all))
	}

	for _, commit := range []struct {
		name    string
		ckpts   []uint64 // checkpoints kept beside the cut segment
		records int      // what they commit
	}{
		{"no checkpoint", nil, 0},
		{"two of three rounds", []uint64{2}, 6},
	} {
		for cut := int64(0); cut < int64(len(full)); cut++ {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, obsKind.name(0)), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			for _, seq := range commit.ckpts {
				name := ckptKind.name(seq)
				if err := os.WriteFile(filepath.Join(dir, name), mustRead(t, filepath.Join(src, name)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// kept is what Open leaves of the cut file: the committed
			// records, or with none its header, or nothing when even the
			// header is torn (Open then starts a fresh segment).
			var kept int64
			switch {
			case commit.records > 0:
				kept = ends[commit.records-1]
			case cut >= segHeaderSize:
				kept = segHeaderSize
			}
			reg := metrics.NewRegistry()
			s2, err := Open(dir, Options{NoSync: true, Metrics: reg})
			if cut < kept {
				if err == nil {
					s2.Close()
					t.Fatalf("%s, cut=%d: Open succeeded with a committed record cut", commit.name, cut)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, cut=%d: Open: %v", commit.name, cut, err)
			}
			got := collectStream(t, s2)
			if want := all[:commit.records]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s, cut=%d: recovered %d obs, want the %d committed", commit.name, cut, len(got), len(want))
			}
			if n := reg.Snapshot().Counters["store_recovered_truncated_bytes_total"]; n != cut-kept {
				t.Fatalf("%s, cut=%d: Open counted %d truncated bytes, want %d", commit.name, cut, n, cut-kept)
			}
			info, err := os.Stat(filepath.Join(dir, obsKind.name(0)))
			if err != nil {
				t.Fatal(err)
			}
			if wantSize := max(kept, segHeaderSize); info.Size() != wantSize {
				t.Fatalf("%s, cut=%d: segment is %d bytes after recovery, want %d", commit.name, cut, info.Size(), wantSize)
			}
			if err := s2.Close(); err != nil {
				t.Fatalf("%s, cut=%d: Close: %v", commit.name, cut, err)
			}
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

// TestRecoveryCorruptFinalRecord: a corrupt final record that a
// checkpoint commits is damage, and Open refuses it. Once that round's
// checkpoint is gone, the record lies past the commit point and Open cuts
// its round.
func TestRecoveryCorruptFinalRecord(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	all := appendRounds(t, s, 2, 2)
	ck, _ := lastCheckpoint(s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segPath := filepath.Join(src, obsKind.name(0))
	b := mustRead(t, segPath)
	ends := frameEnds(t, obsKind, b)
	b[len(b)-1] ^= 0xFF // flip a payload byte of the final record
	if err := os.WriteFile(segPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if s2, err := Open(src, Options{NoSync: true}); err == nil {
		s2.Close()
		t.Fatal("Open succeeded with a committed record corrupt")
	}

	if err := os.Remove(filepath.Join(src, ckptKind.name(ck.Seq))); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s2, err := Open(src, Options{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatalf("Open after the corrupt round's checkpoint is gone: %v", err)
	}
	defer s2.Close()
	if got := collectStream(t, s2); !reflect.DeepEqual(got, all[:2]) {
		t.Fatalf("recovered %d obs, want the first round's 2", len(got))
	}
	if n, want := reg.Snapshot().Counters["store_recovered_truncated_bytes_total"], int64(len(b))-ends[1]; n != want {
		t.Fatalf("Open counted %d truncated bytes, want the second round's %d", n, want)
	}
}

func TestMidStreamCorruptionIsFatal(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src, Options{SegmentSize: 512, NoSync: true})
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
	// Corrupt a record in the FIRST segment: a checkpoint commits it, so
	// recovery must refuse rather than silently dropping everything
	// after it.
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
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendRounds(t, s, 3, 1)
	ck, _ := lastCheckpoint(s)
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
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got, ok := lastCheckpoint(s2)
	if !ok || got.Seq != ck.Seq-1 || got.Rounds != ck.Rounds-1 {
		t.Fatalf("fallback checkpoint = %+v ok=%v, want seq %d", got, ok, ck.Seq-1)
	}
	// Sequence numbers are never reused, even past a corrupt file.
	if err := s2.AppendRound(round0.Add(10*time.Hour), nil); err != nil {
		t.Fatalf("append: %v", err)
	}
	next, _ := lastCheckpoint(s2)
	if next.Seq <= ck.Seq {
		t.Fatalf("new checkpoint seq %d does not supersede the corrupt one (%d)", next.Seq, ck.Seq)
	}
	// Open dropped the undecodable file, so retention keeps the intact
	// predecessor as the new checkpoint's fallback.
	seqs, err := ckptKind.list(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqs, []uint64{ck.Seq - 1, next.Seq}) {
		t.Fatalf("retained checkpoints %v, want [%d %d]", seqs, ck.Seq-1, next.Seq)
	}
	for _, seq := range seqs {
		if _, err := decodeCheckpoint(mustRead(t, filepath.Join(dir, ckptKind.name(seq)))); err != nil {
			t.Errorf("retained checkpoint %d: %v", seq, err)
		}
	}
}

func TestCrashFailpoint(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := Open(dir, Options{CrashAfterRounds: 2, Metrics: reg})
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

	// Reopen: the half round and the torn record lie past the
	// checkpoint, which commits round 1 alone, so Open cuts them.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if ck := st.Checkpoint; !st.HasCheckpoint || ck.Round != round0.UnixNano() || ck.Rounds != 1 || ck.Scans != 4 {
		t.Fatalf("checkpoint after crash = %+v, want round 1 only", ck)
	}
	if st.Rounds != 1 || st.Records != 4 {
		t.Fatalf("reopened stats = %+v, want round 1's 1 round and 4 records", st)
	}
	if got := collectStream(t, s2); !reflect.DeepEqual(got, round1) {
		t.Fatalf("reopened stream has %d obs, want round 1's %d", len(got), len(round1))
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
	s, err := Open(t.TempDir(), Options{SegmentSize: 512, NoSync: true, Metrics: reg})
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
