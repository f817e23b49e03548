package store

import (
	"io"
	"os"
)

// CompactStats reports what Compact changed.
type CompactStats struct {
	// SegmentsMerged is how many under-full segments were folded into
	// merged neighbours (0 when the store was already compact).
	SegmentsMerged int
	// CheckpointsDropped counts superseded checkpoint files removed.
	CheckpointsDropped int
}

// Compact is the scale lever for long campaigns: it merges runs of
// adjacent under-full sealed segments (each below half the rotation
// threshold, combined data still within one segment) into single files,
// and drops every superseded checkpoint, keeping only the newest. The
// active segment is never touched, record bytes are copied verbatim
// (checksums and order are preserved), and the observation stream read
// back after compaction is identical to the one before it.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st CompactStats
	if s.closed {
		return st, ErrClosed
	}
	if err := s.w.flush(); err != nil {
		return st, err
	}
	s.flushed = s.segs[len(s.segs)-1].size

	sealed := s.segs[:len(s.segs)-1]
	var group []*segment
	var groupData int64 // record bytes in the pending group, headers excluded
	flush := func() error {
		if len(group) >= 2 {
			if err := s.mergeSegments(group); err != nil {
				return err
			}
			st.SegmentsMerged += len(group)
		}
		group, groupData = nil, 0
		return nil
	}
	for _, seg := range sealed {
		data := seg.size - segHeaderSize
		underFull := seg.size < s.opt.SegmentSize/2
		if !underFull || groupData+data+segHeaderSize > s.opt.SegmentSize {
			if err := flush(); err != nil {
				return st, err
			}
		}
		if underFull {
			group = append(group, seg)
			groupData += data
		}
	}
	if err := flush(); err != nil {
		return st, err
	}

	// Superseded checkpoints: keep only the newest intact one.
	if s.ckpt != nil {
		seqs, err := ckptKind.list(s.dir)
		if err != nil {
			return st, err
		}
		before := len(seqs)
		if err := pruneCheckpoints(s.dir, s.ckpt.Seq, 1); err != nil {
			return st, err
		}
		seqs, err = ckptKind.list(s.dir)
		if err != nil {
			return st, err
		}
		st.CheckpointsDropped = before - len(seqs)
	}

	if st.SegmentsMerged == 0 {
		return st, nil
	}
	// The segment list changed on disk; rebuild everything from it.
	if err := s.w.close(false); err != nil {
		return st, err
	}
	if err := s.load(); err != nil {
		return st, err
	}
	if err := s.openActive(); err != nil {
		return st, err
	}
	return st, nil
}

// mergeSegments rewrites a run of adjacent sealed segments into a single
// file that takes over the first member's name and index, then removes
// the other members. The merged file is written to a temp name and
// renamed into place, so a crash mid-merge leaves either the old segments
// or the finished merge — never a half-written segment with live data
// missing.
func (s *Store) mergeSegments(group []*segment) error {
	first := uint64(group[0].index)
	err := writeFileAtomic(s.dir, obsKind.name(first), !s.opt.NoSync, func(w io.Writer) error {
		h := obsKind.header(first)
		if _, err := w.Write(h[:]); err != nil {
			return err
		}
		for _, seg := range group {
			if err := copySegmentRecords(w, seg.path); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, seg := range group[1:] {
		if err := os.Remove(seg.path); err != nil {
			return err
		}
	}
	if s.opt.NoSync {
		return nil
	}
	return syncDir(s.dir)
}

// copySegmentRecords appends the record bytes of the segment at path
// (everything after the header) to w, verbatim.
func copySegmentRecords(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //lint:allow errcheck-hot read-only handle, nothing to flush
	if _, err := f.Seek(segHeaderSize, 0); err != nil {
		return err
	}
	_, err = io.Copy(w, f)
	return err
}
