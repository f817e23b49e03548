package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/netmeasure/muststaple/internal/scanner"
)

// segKinds are the two segment kinds; checkpoints share only naming.
var segKinds = []segKind{obsKind, reportKind}

// frameEnds scans a whole segment image of kind k and returns the offset
// just past each frame.
func frameEnds(t testing.TB, k segKind, data []byte) []int64 {
	t.Helper()
	var ends []int64
	var buf []byte
	if _, err := k.scan(bytes.NewReader(data), "fixture", 0, &buf, func(payload []byte, off int64) error {
		ends = append(ends, off+frameHeaderSize+int64(len(payload)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ends
}

func TestSegmentNames(t *testing.T) {
	cases := []struct {
		kind segKind
		name string
		idx  uint64
		ok   bool
	}{
		{obsKind, "seg-000000.log", 0, true},
		{obsKind, "seg-000042.log", 42, true},
		{obsKind, "seg-1234567.log", 1234567, true},
		{obsKind, "seg-.log", 0, false},
		{obsKind, "seg-12ab.log", 0, false},
		{obsKind, "seg-+1.log", 0, false},
		{obsKind, "seg-000000.log.tmp", 0, false},
		{reportKind, "rpt-000000.seg", 0, true},
		{reportKind, "rpt-000042.seg", 42, true},
		{reportKind, "rpt-.seg", 0, false},
		{reportKind, "rpt-12ab.seg", 0, false},
		{reportKind, "obs-000000.seg", 0, false},
		{reportKind, "rpt-000000.tmp", 0, false},
		{ckptKind, "ckpt-0000000000000007.ckpt", 7, true},
		{ckptKind, "ckpt-18446744073709551615.ckpt", math.MaxUint64, true},
		{ckptKind, "ckpt-18446744073709551616.ckpt", 0, false},
		{ckptKind, "ckpt-_1.ckpt", 0, false},
		{ckptKind, "ckpt-0000000000000007.ckpt.tmp", 0, false},
	}
	for _, c := range cases {
		idx, ok := c.kind.parse(c.name)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("%s parse(%q) = %d,%v want %d,%v", c.kind.magic, c.name, idx, ok, c.idx, c.ok)
		}
	}
	for kind, want := range map[segKind]string{
		obsKind:    "seg-000007.log",
		reportKind: "rpt-000007.seg",
		ckptKind:   "ckpt-0000000000000007.ckpt",
	} {
		if got := kind.name(7); got != want {
			t.Errorf("%s name(7) = %q, want %q", kind.magic, got, want)
		}
		if idx, ok := kind.parse(kind.name(123456789)); !ok || idx != 123456789 {
			t.Errorf("%s parse(name(123456789)) = %d,%v", kind.magic, idx, ok)
		}
	}
}

// tornCase is one row of the torn-write table: a fixture, the file in it
// to cut, and the damage policy its format promises (DESIGN.md §11).
type tornCase struct {
	name string
	// frames is the segment kind of the cut file; nil for a checkpoint.
	frames *segKind
	// build writes the fixture into dir and returns the file to cut.
	build func(t *testing.T, dir string) string
	// check cuts path to cut bytes and asserts the policy. boundary
	// reports whether cut lies on a frame boundary, past kept frames.
	check func(t *testing.T, dir, path string, cut int64, boundary bool, kept int)
}

func tear(t *testing.T, path string, cut int64) {
	t.Helper()
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
}

// tornReports are the report-log fixture's payloads.
func tornReports() [][]byte {
	var out [][]byte
	for i := 0; i < 12; i++ {
		out = append(out, []byte(fmt.Sprintf("report-%02d-%s", i, bytes.Repeat([]byte{'r'}, i))))
	}
	return out
}

var tornCases = []tornCase{
	{
		// Every round is checkpointed, so a sealed segment holds only
		// committed records and every cut of it — on a frame boundary
		// too — loses some: Open fails rather than dropping records from
		// the middle of the stream. (A torn final segment is
		// TestRecoveryTornTailCorpus.)
		name:   "observation sealed segment",
		frames: &obsKind,
		build: func(t *testing.T, dir string) string {
			s, err := Open(dir, Options{SegmentSize: 512, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			appendRounds(t, s, 3, 2)
			if len(s.Segments()) < 2 {
				t.Fatal("fixture needs a sealed segment")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return obsKind.name(0)
		},
		check: func(t *testing.T, dir, path string, cut int64, _ bool, _ int) {
			tear(t, path, cut)
			if s, err := Open(dir, Options{SegmentSize: 512, NoSync: true}); err == nil {
				s.Close()
				t.Fatalf("cut=%d: Open succeeded over a cut sealed segment", cut)
			}
		},
	},
	{
		// Everything inside a Reader's snapshot was committed: damage
		// there, or a segment that ends early even on a frame boundary,
		// is an error.
		name:   "observation segment inside a snapshot",
		frames: &obsKind,
		build: func(t *testing.T, dir string) string {
			s, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			appendRounds(t, s, 2, 2)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return obsKind.name(0)
		},
		check: func(t *testing.T, dir, path string, cut int64, _ bool, _ int) {
			s, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			r := s.Reader()
			tear(t, path, cut)
			if err := r.Scan(func(scanner.Observation) error { return nil }); err == nil {
				t.Fatalf("cut=%d: snapshot scan of a cut segment succeeded", cut)
			}
		},
	},
	{
		// The report log is written once per run: damage is an error,
		// and a cut on a frame boundary reads as exactly the prefix.
		name:   "report segment",
		frames: &reportKind,
		build: func(t *testing.T, dir string) string {
			l, err := CreateReportLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tornReports() {
				if err := l.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			return reportKind.name(0)
		},
		check: func(t *testing.T, dir, path string, cut int64, boundary bool, kept int) {
			tear(t, path, cut)
			var got [][]byte
			err := ScanReportLog(dir, func(p []byte) error {
				got = append(got, slices.Clone(p))
				return nil
			})
			checkStrictScan(t, cut, boundary, err, got, tornReports()[:kept])
		},
	},
	{
		// A damaged checkpoint is superseded data: Open falls back to
		// its predecessor.
		name: "checkpoint",
		build: func(t *testing.T, dir string) string {
			s, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			s.SetCheckpointPayload(func() []byte { return []byte("snapshot") })
			appendRounds(t, s, 3, 1)
			ck, _ := lastCheckpoint(s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return ckptKind.name(ck.Seq)
		},
		check: func(t *testing.T, dir, path string, cut int64, _ bool, _ int) {
			tear(t, path, cut)
			s, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatalf("cut=%d: Open: %v", cut, err)
			}
			defer s.Close()
			if ck, ok := lastCheckpoint(s); !ok || ck.Seq != 2 || ck.Rounds != 2 {
				t.Fatalf("cut=%d: checkpoint = %+v ok=%v, want the predecessor (seq 2)", cut, ck, ok)
			}
		},
	},
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkStrictScan asserts a strict log's policy for one cut: the intact
// prefix on a frame boundary, an error anywhere else.
func checkStrictScan[T any](t *testing.T, cut int64, boundary bool, err error, got, want []T) {
	t.Helper()
	if !boundary {
		if err == nil {
			t.Fatalf("cut=%d: scan of a torn segment succeeded with %d records", cut, len(got))
		}
		return
	}
	if err != nil {
		t.Fatalf("cut=%d: scan: %v", cut, err)
	}
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("cut=%d: scan read %d records, want the %d intact ones", cut, len(got), len(want))
	}
}

// TestTornWrites cuts one file of every durable format at every byte
// offset and asserts that format's damage policy.
func TestTornWrites(t *testing.T) {
	for _, tc := range tornCases {
		t.Run(tc.name, func(t *testing.T) {
			src := t.TempDir()
			name := tc.build(t, src)
			full := mustRead(t, filepath.Join(src, name))
			var ends []int64
			if tc.frames != nil {
				ends = frameEnds(t, *tc.frames, full)
			}
			for cut := int64(0); cut < int64(len(full)); cut++ {
				kept := 0
				for kept < len(ends) && ends[kept] <= cut {
					kept++
				}
				boundary := tc.frames != nil && (cut == segHeaderSize || slices.Contains(ends, cut))
				dir := copyDir(t, src)
				tc.check(t, dir, filepath.Join(dir, name), cut, boundary, kept)
			}
		})
	}
}

// FuzzSegmentScan feeds a valid header of every kind followed by
// arbitrary bytes to the frame scan. It must never panic, its committed
// offset must land on a frame boundary within the input, and a strict
// reader must see an error exactly when that offset falls short of the
// input.
func FuzzSegmentScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	for _, p := range [][]byte{[]byte("one"), []byte("two frames"), bytes.Repeat([]byte{0xee}, 300)} {
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(p, crcTable))
		frame = append(frame, p...)
		f.Add(frame)
		f.Add(append(slices.Clone(frame), frame[:len(frame)-1]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		for _, k := range segKinds {
			h := k.header(0)
			input := append(h[:], data...)
			end := int64(segHeaderSize)
			committed, err := k.scan(bytes.NewReader(input), "fuzz", 0, &buf, func(payload []byte, off int64) error {
				if off != end {
					t.Fatalf("%s: frame at offset %d, want %d", k.magic, off, end)
				}
				end = off + frameHeaderSize + int64(len(payload))
				return nil
			})
			if committed != end || committed > int64(len(input)) {
				t.Fatalf("%s: committed %d, last frame boundary %d, input %d bytes", k.magic, committed, end, len(input))
			}
			if (err != nil) != (committed < int64(len(input))) {
				t.Fatalf("%s: committed %d of %d bytes, err %v", k.magic, committed, len(input), err)
			}
			if err != nil && !errors.Is(err, errDamaged) {
				t.Fatalf("%s: error %v does not wrap errDamaged", k.magic, err)
			}
		}
	})
}

// TestFrameAppendAllocs: appending a report costs no allocation once the
// buffers are warm.
func TestFrameAppendAllocs(t *testing.T) {
	l, err := CreateReportLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0x42}, 100)
	if n := testing.AllocsPerRun(100, func() {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReportLog.Append: %v allocations per record, want 0", n)
	}
}
