package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/netmeasure/muststaple/internal/wire"
)

// Corpus segments (corpusKind: cor-NNNNNN.seg) hold a spilled synthetic
// certificate corpus — the census generator's output, streamed to disk
// shard by shard so a paper-scale (hundreds of millions of certificates)
// world never has to live in memory. One segment per generator shard,
// with the exact Must-Staple tier as the final segment, so segment order
// is stream order. Unlike the observation log, the corpus is derived data
// regenerated from a seed: a torn or corrupt record is a hard error
// (re-spill to repair), never a recoverable tail, and nothing is fsynced
// on the write path. The meta file is the commit point, and it names
// exactly which segments belong to the corpus.
const (
	corpusVersion  = 1
	corpusMetaName = "corpus.json"
)

// CorpusRecord is one spilled certificate. It mirrors census.CertInfo
// field for field; the store keeps its own copy so the on-disk format
// does not import the generator.
type CorpusRecord struct {
	CA           string
	Valid        bool
	SupportsOCSP bool
	MustStaple   bool
}

// CorpusMeta is the spill directory's commit record, written atomically
// after every segment so readers can tell a finished spill from a torn
// one — and tell whose corpus it is, so a directory spilled for one
// (seed, scale) is never silently reused for another.
type CorpusMeta struct {
	Version     int   `json:"version"`
	Seed        int64 `json:"seed"`
	ScaleFactor int   `json:"scale_factor"`
	// Shards counts the general-population segments; the Must-Staple
	// tier is the extra segment at index Shards.
	Shards  int   `json:"shards"`
	Records int64 `json:"records"`
}

// WriteCorpusMeta commits the meta file via temp-file + rename, the same
// atomicity discipline as checkpoints: readers see the old meta or the
// new one, never a torn write. Segments past m's last (index Shards) are
// removed first: an interrupted spill of a larger corpus can leave them,
// and they are not part of this one.
func WriteCorpusMeta(dir string, m CorpusMeta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: corpus meta: %w", err)
	}
	if err := corpusKind.removeFrom(dir, uint64(m.Shards)+1); err != nil {
		return err
	}
	return writeFileAtomic(dir, corpusMetaName, false, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// ReadCorpusMeta reads the spill directory's meta file. ok is false when
// the directory has no committed meta (an empty or in-progress spill).
func ReadCorpusMeta(dir string) (m CorpusMeta, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, corpusMetaName))
	if errors.Is(err, os.ErrNotExist) {
		return CorpusMeta{}, false, nil
	}
	if err != nil {
		return CorpusMeta{}, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return CorpusMeta{}, false, fmt.Errorf("store: corpus meta: %w", err)
	}
	if m.Version != corpusVersion {
		return CorpusMeta{}, false, fmt.Errorf("store: corpus meta version %d, want %d", m.Version, corpusVersion)
	}
	return m, true, nil
}

// CorpusWriter appends records to one corpus segment.
type CorpusWriter struct {
	w       *frameWriter
	scratch []byte
	records int64
}

// CreateCorpusSegment creates (or truncates — spills are idempotent
// regenerations, so overwriting a stale segment is the repair path)
// segment index under dir and returns a writer positioned for appends.
func CreateCorpusSegment(dir string, index int) (*CorpusWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := corpusKind.create(dir, uint64(index), os.O_TRUNC)
	if err != nil {
		return nil, err
	}
	return &CorpusWriter{w: newFrameWriter(f, segHeaderSize, 64<<10)}, nil
}

// Append writes one framed record.
func (w *CorpusWriter) Append(rec CorpusRecord) error {
	w.scratch = appendCorpusRecord(w.scratch[:0], rec)
	if err := w.w.append(w.scratch); err != nil {
		return err
	}
	w.records++
	return nil
}

// Records returns how many records have been appended.
func (w *CorpusWriter) Records() int64 { return w.records }

// Close flushes and closes the segment. No fsync: the corpus is derived
// data, and the meta file is the commit point.
func (w *CorpusWriter) Close() error {
	return w.w.close(false)
}

// ScanCorpus streams every record of a committed spill directory through
// fn, segments in index order — which is the generator's stream order.
// It reads exactly the segments 0..Shards that the meta commits: a
// missing or extra segment, or any damaged record, is a hard error, since
// corpus segments are written in full and a damaged spill must be
// regenerated.
func ScanCorpus(dir string, fn func(CorpusRecord) error) error {
	meta, ok, err := ReadCorpusMeta(dir)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("store: %s holds no committed corpus (missing %s)", dir, corpusMetaName)
	}
	return corpusKind.scanLog(dir, meta.Shards+1, func(payload []byte) error {
		rec, err := decodeCorpusRecord(payload)
		if err != nil {
			return fmt.Errorf("store: %s: %w", dir, err)
		}
		return fn(rec)
	})
}

// Corpus record payload: uvarint CA length | CA bytes | flag byte
// (bit 0 Valid, bit 1 SupportsOCSP, bit 2 MustStaple).
func appendCorpusRecord(b []byte, rec CorpusRecord) []byte {
	b = wire.AppendString(b, rec.CA)
	var flags byte
	if rec.Valid {
		flags |= 1
	}
	if rec.SupportsOCSP {
		flags |= 2
	}
	if rec.MustStaple {
		flags |= 4
	}
	return append(b, flags)
}

func decodeCorpusRecord(b []byte) (CorpusRecord, error) {
	d := wire.NewDecoder(b, errPrefix, nil)
	var rec CorpusRecord
	rec.CA = d.String()
	flags := d.Byte()
	if err := d.Err(); err != nil {
		return CorpusRecord{}, err
	}
	if n := d.Remaining(); n != 0 {
		return CorpusRecord{}, fmt.Errorf("store: %d trailing bytes after corpus record", n)
	}
	if flags > 7 {
		return CorpusRecord{}, fmt.Errorf("store: bad corpus record flags %#x", flags)
	}
	rec.Valid = flags&1 != 0
	rec.SupportsOCSP = flags&2 != 0
	rec.MustStaple = flags&4 != 0
	return rec, nil
}
