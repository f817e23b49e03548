package store

import "os"

// Report-log segments (reportKind: rpt-NNNNNN.seg) hold the Expect-Staple
// collector's accepted violation reports, append-only and in arrival
// order. The store treats each report as an opaque payload (the wire
// codec lives in internal/expectstaple; the store must not import its
// producers), one frame per report.
//
// Segments rotate at a size threshold so a long ingest run never grows
// one unbounded file, and segment order is arrival order. Unlike the
// observation log, a damaged record is a hard error: the log is written
// by one collector in one run, so corruption means the run must be
// repeated, not repaired around. Nothing merges or removes a segment of
// a run, so its segments always run 0..n-1 and a gap is an error.
//
// reportSegmentMaxBytes triggers rotation; ~4 MiB keeps segments
// mmap-friendly and bounds the cost of a torn tail to one segment.
const reportSegmentMaxBytes = 4 << 20

// ReportLog appends opaque report payloads to a rotating segment
// sequence. It is not safe for concurrent use; the collector serializes
// appends (arrival order is the log's meaning).
type ReportLog struct {
	dir     string
	w       *frameWriter
	index   uint64
	records int64
}

// CreateReportLog starts a fresh log under dir, removing any previous
// run's segments (a report log captures one ingest run; stale segments
// from an earlier run must not interleave with the new arrival order).
func CreateReportLog(dir string) (*ReportLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := reportKind.removeAll(dir); err != nil {
		return nil, err
	}
	f, err := reportKind.create(dir, 0, os.O_TRUNC)
	if err != nil {
		return nil, err
	}
	return &ReportLog{dir: dir, w: newFrameWriter(f, segHeaderSize, 64<<10)}, nil
}

// Append frames and writes one payload, rotating the segment when the
// size threshold is crossed. The payload is copied into the write buffer
// before Append returns, so callers may reuse it (the collector's pooled
// read buffer depends on this).
func (l *ReportLog) Append(payload []byte) error {
	// Rotate only for a payload the frame writer accepts: rotating for a
	// rejected one would leave an empty segment behind.
	if l.w.size >= reportSegmentMaxBytes && frameFits(payload) {
		if err := l.w.close(false); err != nil {
			return err
		}
		f, err := reportKind.create(l.dir, l.index+1, os.O_TRUNC)
		if err != nil {
			return err
		}
		l.index++
		l.w.reset(f, segHeaderSize)
	}
	if err := l.w.append(payload); err != nil {
		return err
	}
	l.records++
	return nil
}

// Records returns how many payloads have been appended.
func (l *ReportLog) Records() int64 { return l.records }

// Close flushes and closes the current segment.
func (l *ReportLog) Close() error {
	return l.w.close(false)
}

// ScanReportLog streams every payload of a report-log directory through
// fn, segments in index order and records in append order — the
// collector's arrival order. The payload slice is reused between calls;
// fn must not retain it.
func ScanReportLog(dir string, fn func(payload []byte) error) error {
	return reportKind.scanLog(dir, fn)
}
