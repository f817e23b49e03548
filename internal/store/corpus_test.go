package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func corpusFixture() []CorpusRecord {
	return []CorpusRecord{
		{CA: "Let's Encrypt", Valid: true, SupportsOCSP: true},
		{CA: "", Valid: false, SupportsOCSP: false},
		{CA: "DFN", Valid: true, SupportsOCSP: true, MustStaple: true},
		{CA: "Comodo", Valid: false, SupportsOCSP: true},
		{CA: "UserTrust", Valid: true},
	}
}

func writeCorpusSegment(t *testing.T, dir string, index int, recs []CorpusRecord) {
	t.Helper()
	w, err := CreateCorpusSegment(dir, index)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Records(); got != int64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", got, len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// commitCorpus writes the meta that commits segments 0..shards of dir.
func commitCorpus(t *testing.T, dir string, shards int) {
	t.Helper()
	if err := WriteCorpusMeta(dir, CorpusMeta{Version: 1, Seed: 1, ScaleFactor: 1, Shards: shards}); err != nil {
		t.Fatal(err)
	}
}

// scanCorpusCAs returns the CA of every record ScanCorpus yields.
func scanCorpusCAs(dir string) ([]string, error) {
	var cas []string
	err := ScanCorpus(dir, func(rec CorpusRecord) error {
		cas = append(cas, rec.CA)
		return nil
	})
	return cas, err
}

func TestCorpusSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := corpusFixture()
	writeCorpusSegment(t, dir, 0, want)
	commitCorpus(t, dir, 0)

	var got []CorpusRecord
	err := ScanCorpus(dir, func(rec CorpusRecord) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestScanCorpusOrdersSegmentsByIndex(t *testing.T) {
	dir := t.TempDir()
	// Write out of order; the scan must come back in index order.
	writeCorpusSegment(t, dir, 2, []CorpusRecord{{CA: "third"}})
	writeCorpusSegment(t, dir, 0, []CorpusRecord{{CA: "first"}})
	writeCorpusSegment(t, dir, 1, []CorpusRecord{{CA: "second"}})
	commitCorpus(t, dir, 2)

	cas, err := scanCorpusCAs(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	if !reflect.DeepEqual(cas, want) {
		t.Fatalf("scan order = %v, want %v", cas, want)
	}
}

func TestCorpusSegmentCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	writeCorpusSegment(t, dir, 0, corpusFixture())
	commitCorpus(t, dir, 0)
	path := filepath.Join(dir, corpusKind.name(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte: unlike the observation log's recoverable torn
	// tail, a corrupt corpus record must fail the scan.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scanCorpusCAs(dir); err == nil {
		t.Fatal("scan of corrupt segment succeeded, want error")
	}

	// A truncated tail is equally fatal.
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scanCorpusCAs(dir); err == nil {
		t.Fatal("scan of truncated segment succeeded, want error")
	}
}

func TestCorpusMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadCorpusMeta(dir); err != nil || ok {
		t.Fatalf("ReadCorpusMeta on empty dir = ok=%v err=%v, want absent", ok, err)
	}
	want := CorpusMeta{Version: 1, Seed: 42, ScaleFactor: 1000, Shards: 8, Records: 489_580}
	if err := WriteCorpusMeta(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCorpusMeta(dir)
	if err != nil || !ok {
		t.Fatalf("ReadCorpusMeta = ok=%v err=%v, want present", ok, err)
	}
	if got != want {
		t.Fatalf("meta round trip = %+v, want %+v", got, want)
	}
}

// TestScanCorpusReadsExactlyCommittedSegments: the meta, not the
// directory listing, says which segments form the corpus.
func TestScanCorpusReadsExactlyCommittedSegments(t *testing.T) {
	dir := t.TempDir()
	// An interrupted spill of a larger corpus left segments 0..5 and no
	// meta; the directory is then reused for a one-shard corpus, which
	// rewrites only segments 0 and 1.
	for i := 0; i <= 5; i++ {
		writeCorpusSegment(t, dir, i, []CorpusRecord{{CA: "stale"}})
	}
	writeCorpusSegment(t, dir, 0, []CorpusRecord{{CA: "shard"}})
	writeCorpusSegment(t, dir, 1, []CorpusRecord{{CA: "tier"}})
	commitCorpus(t, dir, 1)
	if n := countFiles(t, dir, corpusKind.suffix); n != 2 {
		t.Fatalf("%d segments after the meta committed, want the 2 it names", n)
	}
	cas, err := scanCorpusCAs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"shard", "tier"}; !reflect.DeepEqual(cas, want) {
		t.Fatalf("scan = %v, want %v", cas, want)
	}

	// A segment the meta does not name is an error, not more corpus.
	writeCorpusSegment(t, dir, 5, []CorpusRecord{{CA: "stray"}})
	if cas, err := scanCorpusCAs(dir); err == nil {
		t.Fatalf("scan with a stray segment 5 returned %v and no error", cas)
	}
	if err := os.Remove(filepath.Join(dir, corpusKind.name(5))); err != nil {
		t.Fatal(err)
	}
	// So is a missing one, and so is a directory with no meta.
	if err := os.Remove(filepath.Join(dir, corpusKind.name(1))); err != nil {
		t.Fatal(err)
	}
	if cas, err := scanCorpusCAs(dir); err == nil {
		t.Fatalf("scan missing segment 1 returned %v and no error", cas)
	}
	if _, err := scanCorpusCAs(t.TempDir()); err == nil {
		t.Fatal("scan of a directory with no committed meta succeeded")
	}
}
