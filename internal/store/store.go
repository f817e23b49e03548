// Package store is the durable observation store behind `-store` /
// `-resume`: a dependency-free embedded segmented append-only log holding
// one record per scanner.Observation, with CRC32-C checksummed record
// framing, crash-safe recovery that truncates a torn tail record, and
// periodic campaign checkpoints that let an interrupted campaign resume
// exactly where it stopped. The Expect-Staple report log and the corpus
// spill share its segment layer (segment.go). See DESIGN.md §11 for the
// on-disk format and the recovery rules.
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
	// CheckpointEvery is how many appended rounds lie between
	// checkpoints. 0 means 1: every completed round is checkpointed,
	// so a crash loses at most the round in flight.
	CheckpointEvery int
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
// is zero. Small enough that compaction and truncation touch little data,
// large enough that a paper-scale campaign stays in tens of files.
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
	rounds  []int64      // distinct record round timestamps, ascending
	// roundCount includes empty rounds (every target expired), which
	// leave no records — the checkpoint carries their count across
	// reopens. lastRound/hasRound track the append high-water mark.
	roundCount int64
	lastRound  int64
	hasRound   bool
	scans      int64 // records on disk
	ckpt       *Checkpoint
	ckptSeq    uint64        // highest checkpoint sequence ever observed
	sinceCk    int           // rounds appended since the last checkpoint
	payload    func() []byte // optional engine snapshot for checkpoints

	encBuf  []byte // reusable observation encode buffer
	scanBuf []byte // reusable segment-scan payload buffer

	mSegments *metrics.Gauge
	mBytes    *metrics.Gauge
	mRecords  *metrics.Counter
	mRounds   *metrics.Counter
	mCkpts    *metrics.Counter
	mRecov    *metrics.Counter
}

// Open opens (creating if needed) the store in dir. Opening scans every
// segment, truncates a torn tail left by a crash, and loads the newest
// intact checkpoint.
func Open(dir string, opt Options) (*Store, error) {
	if opt.SegmentSize <= 0 {
		opt.SegmentSize = DefaultSegmentSize
	}
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = 1
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

// load rebuilds the in-memory state — segment list, round list,
// checkpoint — from the files in s.dir, dropping a torn tail of the final
// segment. It does not open the active segment for writing.
func (s *Store) load() error {
	idx, err := obsKind.list(s.dir)
	if err != nil {
		return err
	}
	s.segs = make([]*segment, 0, len(idx))
	s.rounds = nil
	s.scans = 0

	var lastRound int64
	for i, n := range idx {
		seg := &segment{index: int(n), path: filepath.Join(s.dir, obsKind.name(n))}
		committed, err := obsKind.scanFile(seg.path, n, -1, &s.scanBuf, func(payload []byte, off int64) error {
			at, err := decodeRecordAt(payload)
			if err != nil {
				return fmt.Errorf("store: %s offset %d: %w", seg.path, off, err)
			}
			if at < lastRound {
				return fmt.Errorf("store: %s offset %d: round %d out of order (after %d)", seg.path, off, at, lastRound)
			}
			if at > lastRound || len(s.rounds) == 0 {
				s.rounds = append(s.rounds, at)
				lastRound = at
			}
			if seg.records == 0 {
				seg.firstAt = at
			}
			seg.lastAt = at
			seg.records++
			s.scans++
			return nil
		})
		if errors.Is(err, errDamaged) {
			if i != len(idx)-1 {
				return fmt.Errorf("store: sealed segment %s is damaged (%d bytes intact); only the final segment may carry a torn tail: %w", seg.path, committed, err)
			}
			// Crash recovery: an interrupted append. Cut the segment back
			// to its last intact frame, or drop it whole when even its
			// header is torn.
			info, err := os.Stat(seg.path)
			if err != nil {
				return err
			}
			if committed == 0 {
				err = os.Remove(seg.path)
			} else {
				err = os.Truncate(seg.path, committed)
			}
			if err != nil {
				return err
			}
			s.mRecov.Add(info.Size() - committed)
			if committed == 0 {
				break
			}
		} else if err != nil {
			return err
		}
		seg.size = committed
		s.segs = append(s.segs, seg)
	}

	s.roundCount = int64(len(s.rounds))
	s.hasRound = len(s.rounds) > 0
	if s.hasRound {
		s.lastRound = s.rounds[len(s.rounds)-1]
	}

	ck, seq, err := loadLatestCheckpoint(s.dir)
	if err != nil {
		return err
	}
	s.ckptSeq = seq
	if ck != nil {
		if ck.Scans > s.scans {
			// A checkpoint is written only after its data is durable, so
			// it can never legitimately describe more records than the
			// log holds.
			return fmt.Errorf("store: checkpoint %d claims %d scans but the log holds only %d — segment data is missing or foreign", ck.Seq, ck.Scans, s.scans)
		}
		// Trailing empty rounds leave no records; the checkpoint is
		// their only trace.
		if !s.hasRound || ck.Round > s.lastRound {
			s.lastRound = ck.Round
			s.hasRound = true
		}
		if ck.Rounds > s.roundCount {
			s.roundCount = ck.Rounds
		}
	}
	s.ckpt = ck
	s.publishGauges()
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

// AppendRound durably appends one completed round: every observation is
// framed, checksummed, and written to the active segment; the segment is
// flushed, and — every CheckpointEvery rounds — fsynced and checkpointed.
// Rounds must arrive in strictly increasing virtual-time order. The
// first write failure is sticky: the store refuses further appends so a
// half-written round is never extended.
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
	if s.hasRound && round <= s.lastRound {
		return fmt.Errorf("store: round %s does not advance past the last persisted round %s",
			at.UTC().Format(time.RFC3339Nano), time.Unix(0, s.lastRound).UTC().Format(time.RFC3339Nano))
	}

	crash := s.opt.CrashAfterRounds > 0 && s.roundCount+1 >= int64(s.opt.CrashAfterRounds)
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
	if len(obs) > 0 {
		s.rounds = append(s.rounds, round)
	}
	s.roundCount++
	s.lastRound, s.hasRound = round, true
	s.scans += int64(len(obs))
	s.mRecords.Add(int64(len(obs)))
	s.mRounds.Inc()
	s.sinceCk++
	if s.sinceCk >= s.opt.CheckpointEvery {
		if err := s.checkpointLocked(); err != nil {
			s.failed = err
			return err
		}
		s.sinceCk = 0
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
// (header plus half a payload), make it all durable, and stop. Recovery
// on the next Open must truncate the torn record and resume from the last
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

// LastCheckpoint returns the newest intact checkpoint, if any.
func (s *Store) LastCheckpoint() (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ckpt == nil {
		return Checkpoint{}, false
	}
	return *s.ckpt, true
}

// checkpointLocked fsyncs the active segment and writes a new checkpoint
// recording the round high-water mark.
func (s *Store) checkpointLocked() error {
	if !s.opt.NoSync {
		if err := s.w.f.Sync(); err != nil {
			return err
		}
	}
	ck := Checkpoint{
		Seq:    s.ckptSeq + 1,
		Round:  s.lastRound,
		Rounds: s.roundCount,
		Scans:  s.scans,
	}
	if s.payload != nil {
		ck.Payload = s.payload()
	}
	if err := writeCheckpoint(s.dir, ck, s.opt.NoSync); err != nil {
		return err
	}
	s.ckptSeq = ck.Seq
	s.ckpt = &ck
	s.mCkpts.Inc()
	// Retention: the newest checkpoint plus one predecessor survive;
	// anything older is superseded.
	return pruneCheckpoints(s.dir, ck.Seq, 2)
}

// TruncateAfter removes every record whose round is later than round
// (UnixNano) — the resume path's way of discarding a partially persisted
// round beyond the last checkpoint — then drops the checkpoints past the
// new tail and reloads.
func (s *Store) TruncateAfter(round int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.w.close(false); err != nil {
		return err
	}

	cut := -1 // first segment slice position to delete entirely
	for i, seg := range s.segs {
		if seg.records == 0 || seg.lastAt <= round {
			continue
		}
		if seg.firstAt > round {
			cut = i
			break
		}
		// The boundary segment: find the offset of the first record
		// past the cut and truncate there.
		var cutOff int64 = -1
		committed, err := obsKind.scanFile(seg.path, uint64(seg.index), -1, &s.scanBuf, func(payload []byte, off int64) error {
			at, err := decodeRecordAt(payload)
			if err != nil {
				return err
			}
			if at > round {
				cutOff = off
				return ErrStop
			}
			return nil
		})
		if err != nil && !errors.Is(err, ErrStop) {
			return err
		}
		if cutOff < 0 {
			cutOff = committed
		}
		if err := os.Truncate(seg.path, cutOff); err != nil {
			return err
		}
		cut = i + 1
		break
	}
	if cut >= 0 {
		for _, seg := range s.segs[cut:] {
			if err := os.Remove(seg.path); err != nil {
				return err
			}
		}
	}

	// Checkpoints past the cut describe rounds that no longer exist;
	// remove them so the newest survivor matches the new tail. In the
	// resume path round IS the newest checkpoint's round, so that
	// checkpoint — including its empty-round accounting — survives.
	if err := removeCheckpointsAfter(s.dir, round); err != nil {
		return err
	}
	if err := s.load(); err != nil {
		return err
	}
	if err := s.openActive(); err != nil {
		return err
	}
	s.sinceCk = 0
	return nil
}

// Rounds returns the persisted round timestamps (UnixNano), ascending.
// Rounds that carried no records (every target expired) leave no
// timestamps here; Stats().Rounds and the checkpoint count them.
func (s *Store) Rounds() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.rounds...)
}

// Stats summarizes the store for inspection tools.
type Stats struct {
	Segments int
	Records  int64
	Rounds   int
	Bytes    int64
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
		Segments: len(s.segs),
		Records:  s.scans,
		Rounds:   int(s.roundCount),
	}
	for _, seg := range s.segs {
		st.Bytes += seg.size
	}
	if s.ckpt != nil {
		st.Checkpoint, st.HasCheckpoint = *s.ckpt, true
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
