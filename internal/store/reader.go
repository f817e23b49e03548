package store

import (
	"errors"
	"fmt"

	"github.com/netmeasure/muststaple/internal/scanner"
)

// ErrStop may be returned by a Scan callback to end the scan early;
// Scan then returns nil.
var ErrStop = errors.New("store: stop scan")

// Reader streams a point-in-time snapshot of the store: the segments and
// byte limits are captured when the Reader is created, so records
// appended afterwards are not visited. Scans read segment files in order
// with a reused buffer — memory stays bounded no matter how large the
// store is.
type Reader struct {
	segs []readerSeg
}

type readerSeg struct {
	path  string
	index int
	limit int64 // committed bytes at snapshot time
}

// Reader snapshots the current flushed state for streaming reads. It
// implements the report package's ObservationSource, and its Scan method
// satisfies scanner.ReplaySource.
func (s *Store) Reader() *Reader {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &Reader{segs: make([]readerSeg, 0, len(s.segs))}
	for i, seg := range s.segs {
		limit := seg.size
		if i == len(s.segs)-1 {
			// The active segment may hold buffered, not-yet-flushed
			// bytes; expose only what is readable on disk.
			limit = s.flushed
		}
		r.segs = append(r.segs, readerSeg{path: seg.path, index: seg.index, limit: limit})
	}
	return r
}

// Scan streams every observation in storage order (segment order, append
// order within a segment) to fn, decoding one record at a time. A fn
// error stops the scan and is returned, except ErrStop which stops it
// successfully. Unlike recovery, a scan does not tolerate torn records:
// everything inside the snapshot limits was durably committed, so damage
// there — or a segment ending short of its limit — is an error.
func (r *Reader) Scan(fn func(scanner.Observation) error) error {
	// Scan-level scratch, shared by every segment: one payload buffer and
	// one string intern table, so steady state decoding allocates only
	// for values the scan has never seen.
	var buf []byte
	intern := newInternTable()
	for _, seg := range r.segs {
		committed, err := obsKind.scanFile(seg.path, uint64(seg.index), seg.limit, &buf, func(payload []byte, off int64) error {
			o, err := decodeObservationInterned(payload, intern)
			if err != nil {
				return fmt.Errorf("store: %s offset %d: %w", seg.path, off, err)
			}
			return fn(o)
		})
		if errors.Is(err, ErrStop) {
			return nil
		}
		if err != nil {
			return err
		}
		if committed < seg.limit {
			return fmt.Errorf("store: %s ends at offset %d, inside its committed %d bytes", seg.path, committed, seg.limit)
		}
	}
	return nil
}
