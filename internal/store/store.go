// Package store is the durable observation store behind `-store` /
// `-resume`: a dependency-free embedded segmented append-only log holding
// one record per scanner.Observation, with CRC32-C checksummed record
// framing and a checkpoint after every round. The newest intact
// checkpoint is the store's one commit point: Open keeps exactly the
// records it counts and cuts whatever a crash left past them, so an
// interrupted campaign resumes exactly where it stopped. The Expect-Staple
// report log shares its segment layer (segment.go). See DESIGN.md §11 for
// the on-disk format and the recovery rules.
//
// Concurrency: a Store has a single writer (Campaign.Run calls
// AppendRound on its own goroutine) and any number of Readers; all
// exported methods are safe for concurrent use.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/scanner"
)

// ErrSimulatedCrash is returned by AppendRound when the CrashAfterRounds
// failpoint fires: the store has durably written only part of the round
// (plus a deliberately torn trailing record) and refuses further writes,
// exactly as if the process had died mid-append. cmd/repro exits with a
// distinct status on this error so the CI crash-recovery drill can assert
// the interruption happened.
var ErrSimulatedCrash = errors.New("store: simulated crash failpoint reached")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Options configures Open. The zero value is a usable default.
type Options struct {
	// SegmentSize is the rotation threshold in bytes; a segment that
	// reaches it is sealed and a new one started. 0 means
	// DefaultSegmentSize.
	SegmentSize int64
	// NoSync disables fsync entirely (benchmarks; crash safety is then
	// up to the OS).
	NoSync bool
	// Metrics receives the store's counters (segments, bytes, records,
	// flush latency). Nil means a private registry.
	Metrics *metrics.Registry
	// CrashAfterRounds is a failpoint for crash-recovery drills: when
	// N > 0, the N-th AppendRound durably writes only half its records
	// plus a torn trailing record, then returns ErrSimulatedCrash and
	// refuses further writes. Never set it outside tests and the CI
	// drill.
	CrashAfterRounds int
}

// DefaultSegmentSize is the rotation threshold when Options.SegmentSize
// is zero: large enough that a paper-scale campaign stays in tens of
// files.
const DefaultSegmentSize = 4 << 20

// segment is the in-memory description of one observation segment file.
type segment struct {
	index   int
	path    string
	size    int64 // committed bytes, header included
	records int
	firstAt int64 // round of the first/last record (UnixNano);
	lastAt  int64 // meaningful only when records > 0
}

// Store is an open observation store. Create with Open.
type Store struct {
	dir string
	opt Options
	reg *metrics.Registry

	mu      sync.Mutex
	closed  bool
	failed  error // sticky first write failure; all later writes return it
	segs    []*segment
	w       *frameWriter // appends to the last segment
	flushed int64        // bytes of the active segment durable enough to read
	// ckpt is the commit point: the newest checkpoint, or the zero value
	// (Seq 0) before the first. Its Round, Rounds and Scans are the
	// store's round high-water mark and counts; a round that carried no
	// records (every target expired) is counted only there.
	ckpt    Checkpoint
	ckptSeq uint64        // highest checkpoint sequence ever observed
	payload func() []byte // optional engine snapshot for checkpoints

	encBuf  []byte // reusable observation encode buffer
	scanBuf []byte // reusable segment-scan payload buffer

	mSegments *metrics.Gauge
	mBytes    *metrics.Gauge
	mRecords  *metrics.Counter
	mRounds   *metrics.Counter
	mCkpts    *metrics.Counter
	mRecov    *metrics.Counter
}

// Open opens (creating if needed) the store in dir and rolls the log back
// to its newest intact checkpoint (load).
func Open(dir string, opt Options) (*Store, error) {
	if opt.SegmentSize <= 0 {
		opt.SegmentSize = DefaultSegmentSize
	}
	reg := opt.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		opt:       opt,
		reg:       reg,
		mSegments: reg.Gauge("store_segments"),
		mBytes:    reg.Gauge("store_bytes"),
		mRecords:  reg.Counter("store_records_appended_total"),
		mRounds:   reg.Counter("store_rounds_appended_total"),
		mCkpts:    reg.Counter("store_checkpoints_written_total"),
		mRecov:    reg.Counter("store_recovered_truncated_bytes_total"),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

// errPastCommit stops load's scan at the first record past the commit
// point.
var errPastCommit = errors.New("store: record past the commit point")

// load rebuilds the in-memory state — commit point and segment list —
// from the files in s.dir. It is the only code that cuts the log. The
// newest intact checkpoint is the commit point: load keeps exactly the
// Scans records it counts and cuts whatever follows them (a round a crash
// cut short, a torn frame, whole later segments), counting the bytes in
// store_recovered_truncated_bytes_total. Damage or missing records inside
// the committed prefix are an error, and so is a committed record later
// than the checkpoint's round. With nothing committed, the first segment
// is cut back to its header. load does not open the active segment for
// writing.
func (s *Store) load() error {
	ck, seq, err := loadLatestCheckpoint(s.dir)
	if err != nil {
		return err
	}
	s.ckpt, s.ckptSeq = ck, seq
	idx, err := obsKind.list(s.dir)
	if err != nil {
		return err
	}
	s.segs = make([]*segment, 0, len(idx))

	var kept, lastAt int64
	past := false // an earlier segment was cut: drop whole segments
	for _, n := range idx {
		path := filepath.Join(s.dir, obsKind.name(n))
		if past {
			if err := s.cut(path, 0); err != nil {
				return err
			}
			continue
		}
		seg := &segment{index: int(n), path: path}
		end := int64(-1) // where the segment is cut; -1 keeps it whole
		committed, err := obsKind.scanFile(path, n, -1, &s.scanBuf, func(payload []byte, off int64) error {
			if kept == ck.Scans {
				end = off
				return errPastCommit
			}
			at, err := decodeRecordAt(payload)
			if err != nil {
				return fmt.Errorf("store: %s offset %d: %w", path, off, err)
			}
			if (kept > 0 && at < lastAt) || at > ck.Round {
				return fmt.Errorf("store: %s offset %d: round %d is out of order or later than checkpoint %d's round %d", path, off, at, ck.Seq, ck.Round)
			}
			if seg.records == 0 {
				seg.firstAt = at
			}
			seg.lastAt, lastAt = at, at
			seg.records++
			kept++
			return nil
		})
		switch {
		case errors.Is(err, errPastCommit):
		case errors.Is(err, errDamaged) && kept == ck.Scans:
			end = committed
		case errors.Is(err, errDamaged):
			return fmt.Errorf("store: %s is damaged inside the %d record(s) checkpoint %d commits: %w", path, ck.Scans, ck.Seq, err)
		case err != nil:
			return err
		}
		seg.size = committed
		if end >= 0 {
			if err := s.cut(path, end); err != nil {
				return err
			}
			seg.size, past = end, true
		}
		if seg.size > 0 { // 0: not even its header was intact, and cut removed it
			s.segs = append(s.segs, seg)
		}
	}
	if kept < ck.Scans {
		// A checkpoint is written only after its data is durable, so
		// the log can never legitimately hold fewer records.
		return fmt.Errorf("store: checkpoint %d commits %d record(s) but the log holds only %d — segment data is missing or foreign", ck.Seq, ck.Scans, kept)
	}
	s.publishGauges()
	return nil
}

// cut truncates the segment file at path to size bytes, removing it when
// size is 0, and counts the bytes dropped.
func (s *Store) cut(path string, size int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if size == 0 {
		err = os.Remove(path)
	} else {
		err = os.Truncate(path, size)
	}
	if err != nil {
		return err
	}
	s.mRecov.Add(info.Size() - size)
	return nil
}

// openActive opens the last segment for appending, sealing it and
// starting a fresh one when it is already at the rotation threshold.
func (s *Store) openActive() error {
	var f *os.File
	var err error
	if n := len(s.segs); n == 0 || s.segs[n-1].size >= s.opt.SegmentSize {
		f, err = s.startSegment()
	} else if f, err = os.OpenFile(s.segs[n-1].path, os.O_WRONLY, 0); err == nil {
		if _, serr := f.Seek(s.segs[n-1].size, 0); serr != nil {
			err = errors.Join(serr, f.Close())
		}
	}
	if err != nil {
		return err
	}
	size := s.segs[len(s.segs)-1].size
	if s.w == nil {
		s.w = newFrameWriter(f, size, 256<<10)
	} else {
		s.w.reset(f, size)
	}
	s.flushed = size
	s.publishGauges()
	return nil
}

// startSegment creates the segment after the last one and appends it to
// s.segs.
func (s *Store) startSegment() (*os.File, error) {
	next := 0
	if n := len(s.segs); n > 0 {
		next = s.segs[n-1].index + 1
	}
	f, err := obsKind.create(s.dir, uint64(next), os.O_EXCL)
	if err != nil {
		return nil, err
	}
	s.segs = append(s.segs, &segment{index: next, path: f.Name(), size: segHeaderSize})
	s.reg.Counter("store_segments_created_total").Inc()
	return f, nil
}

func (s *Store) publishGauges() {
	s.mSegments.Set(int64(len(s.segs)))
	var bytes int64
	for _, seg := range s.segs {
		bytes += seg.size
	}
	s.mBytes.Set(bytes)
}

// AppendRound durably appends one completed round and commits it: every
// observation is framed, checksummed, and written to the active segment;
// the segment is flushed and fsynced, and a checkpoint is written. Rounds
// must arrive in strictly increasing virtual-time order, and each
// observation carries its round's time (Open rejects a committed record
// later than its checkpoint's round). The first write failure is sticky:
// the store refuses further appends so a half-written round is never
// extended.
func (s *Store) AppendRound(at time.Time, obs []scanner.Observation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	round := at.UnixNano()
	if s.ckpt.Rounds > 0 && round <= s.ckpt.Round {
		return fmt.Errorf("store: round %s does not advance past the last persisted round %s",
			at.UTC().Format(time.RFC3339Nano), time.Unix(0, s.ckpt.Round).UTC().Format(time.RFC3339Nano))
	}

	crash := s.opt.CrashAfterRounds > 0 && s.ckpt.Rounds+1 >= int64(s.opt.CrashAfterRounds)
	n := len(obs)
	if crash {
		n = len(obs) / 2
	}
	for i := 0; i < n; i++ {
		if err := s.appendRecord(round, &obs[i]); err != nil {
			s.failed = err
			return err
		}
	}
	if crash {
		if err := s.simulateCrash(obs, n); err != nil {
			s.failed = err
			return err
		}
		s.failed = ErrSimulatedCrash
		return s.failed
	}

	stop := s.reg.Timer("store_flush_seconds")
	if err := s.w.flush(); err != nil {
		s.failed = err
		return err
	}
	s.flushed = s.segs[len(s.segs)-1].size
	s.mRecords.Add(int64(len(obs)))
	s.mRounds.Inc()
	if err := s.checkpointLocked(round, int64(len(obs))); err != nil {
		s.failed = err
		return err
	}
	stop()
	s.publishGauges()
	return nil
}

// appendRecord frames and buffers one observation, rotating the active
// segment first when it has reached the size threshold.
func (s *Store) appendRecord(round int64, o *scanner.Observation) error {
	if s.w.size >= s.opt.SegmentSize {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	s.encBuf = appendObservation(s.encBuf[:0], o)
	if err := s.w.append(s.encBuf); err != nil {
		return err
	}
	seg := s.segs[len(s.segs)-1]
	seg.size = s.w.size
	if seg.records == 0 {
		seg.firstAt = round
	}
	seg.lastAt = round
	seg.records++
	return nil
}

// rotateLocked seals the active segment (flush, fsync, close) and starts
// the next one.
func (s *Store) rotateLocked() error {
	if err := s.w.close(!s.opt.NoSync); err != nil {
		return err
	}
	f, err := s.startSegment()
	if err != nil {
		return err
	}
	s.w.reset(f, segHeaderSize)
	s.flushed = segHeaderSize
	return nil
}

// simulateCrash is the CrashAfterRounds failpoint body: the first half of
// the round is already buffered; write one deliberately torn record
// (header plus half a payload), make it all durable, and stop. The next
// Open cuts the half round and the torn record back to the last
// checkpoint.
func (s *Store) simulateCrash(obs []scanner.Observation, written int) error {
	if len(obs) > 0 {
		s.encBuf = appendObservation(s.encBuf[:0], &obs[written%len(obs)])
		if err := s.w.append(s.encBuf); err != nil {
			return err
		}
	}
	if err := s.w.flush(); err != nil {
		return err
	}
	if len(obs) > 0 {
		// Tear the frame just written: keep its header and the first
		// half of its payload.
		lost := int64(len(s.encBuf) - len(s.encBuf)/2)
		if err := s.w.f.Truncate(s.w.size - lost); err != nil {
			return err
		}
	}
	if !s.opt.NoSync {
		return s.w.f.Sync()
	}
	return nil
}

// SetCheckpointPayload installs a callback that supplies an opaque
// snapshot (e.g. the campaign engine's metrics) stored inside every
// subsequent checkpoint. Purely informational: resume rebuilds aggregator
// state by replaying the log, not by deserializing this payload.
func (s *Store) SetCheckpointPayload(fn func() []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.payload = fn
}

// checkpointLocked fsyncs the active segment and commits the round just
// appended — at round (UnixNano), with scans records — by writing the
// next checkpoint.
func (s *Store) checkpointLocked(round, scans int64) error {
	if !s.opt.NoSync {
		if err := s.w.f.Sync(); err != nil {
			return err
		}
	}
	ck := Checkpoint{
		Seq:    s.ckptSeq + 1,
		Round:  round,
		Rounds: s.ckpt.Rounds + 1,
		Scans:  s.ckpt.Scans + scans,
	}
	if s.payload != nil {
		ck.Payload = s.payload()
	}
	if err := writeCheckpoint(s.dir, ck, s.opt.NoSync); err != nil {
		return err
	}
	s.ckpt, s.ckptSeq = ck, ck.Seq
	s.mCkpts.Inc()
	return pruneCheckpoints(s.dir, ck.Seq)
}

// Stats summarizes the store for inspection tools.
type Stats struct {
	Segments int
	// Records and Rounds count what the checkpoint commits.
	Records int64
	Rounds  int
	Bytes   int64
	// Checkpoint is the newest intact checkpoint; HasCheckpoint reports
	// whether one exists.
	Checkpoint    Checkpoint
	HasCheckpoint bool
}

// Stats returns a snapshot of the store's shape.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Segments:      len(s.segs),
		Records:       s.ckpt.Scans,
		Rounds:        int(s.ckpt.Rounds),
		Checkpoint:    s.ckpt,
		HasCheckpoint: s.ckpt.Seq > 0,
	}
	for _, seg := range s.segs {
		st.Bytes += seg.size
	}
	return st
}

// Segments describes the on-disk segment files in order.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.segs))
	for _, seg := range s.segs {
		out = append(out, SegmentInfo{
			Index:   seg.index,
			Path:    seg.path,
			Bytes:   seg.size,
			Records: seg.records,
			FirstAt: seg.firstAt,
			LastAt:  seg.lastAt,
		})
	}
	return out
}

// SegmentInfo describes one segment file.
type SegmentInfo struct {
	Index   int
	Path    string
	Bytes   int64
	Records int
	// FirstAt and LastAt are the rounds (UnixNano) of the first and last
	// record; both zero when the segment is empty.
	FirstAt, LastAt int64
}

// Close flushes and fsyncs the active segment and releases the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.w.close(!s.opt.NoSync)
}
