package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Checkpoint files are named ckpt-NNNNNNNNNNNNNNNN.ckpt (seq, zero-padded
// decimal) and written atomically (temp file + rename), so a checkpoint
// either exists whole or not at all. Layout:
//
//	8-byte magic "MSOBSCK1" | u32 LE version | u64 LE seq |
//	i64 LE round | i64 LE rounds | i64 LE scans |
//	u32 LE payload length | payload | u32 LE CRC32-C of everything above
//
// The magic, version and name pattern live in ckptKind (segment.go).
// maxCheckpointPayload bounds the opaque snapshot carried inside a
// checkpoint; anything larger is a corrupt length field.
const maxCheckpointPayload = 8 << 20

// Checkpoint records the store's durable high-water mark after a fully
// persisted round. Resume truncates the log back to Round and replays it;
// Payload is an opaque informational snapshot (see SetCheckpointPayload).
type Checkpoint struct {
	// Seq orders checkpoints; higher supersedes lower.
	Seq uint64
	// Round is the last fully persisted round (UnixNano).
	Round int64
	// Rounds and Scans count the persisted rounds and records up to and
	// including Round.
	Rounds int64
	Scans  int64
	// Payload is an opaque engine snapshot; may be empty.
	Payload []byte
}

func encodeCheckpoint(ck Checkpoint) []byte {
	b := make([]byte, 0, 48+len(ck.Payload))
	b = append(b, ckptKind.magic...)
	b = binary.LittleEndian.AppendUint32(b, ckptKind.version)
	b = binary.LittleEndian.AppendUint64(b, ck.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.Round))
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.Rounds))
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.Scans))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ck.Payload)))
	b = append(b, ck.Payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

func decodeCheckpoint(b []byte) (Checkpoint, error) {
	var ck Checkpoint
	if len(b) < 52 {
		return ck, fmt.Errorf("store: checkpoint too short (%d bytes)", len(b))
	}
	if string(b[:8]) != ckptKind.magic {
		return ck, fmt.Errorf("store: bad checkpoint magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != ckptKind.version {
		return ck, fmt.Errorf("store: checkpoint version %d, want %d", v, ckptKind.version)
	}
	ck.Seq = binary.LittleEndian.Uint64(b[12:])
	ck.Round = int64(binary.LittleEndian.Uint64(b[20:]))
	ck.Rounds = int64(binary.LittleEndian.Uint64(b[28:]))
	ck.Scans = int64(binary.LittleEndian.Uint64(b[36:]))
	n := binary.LittleEndian.Uint32(b[44:])
	if n > maxCheckpointPayload || int(n) != len(b)-52 {
		return ck, fmt.Errorf("store: checkpoint payload length %d does not match file size %d", n, len(b))
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return ck, fmt.Errorf("store: checkpoint failed its checksum")
	}
	if n > 0 {
		ck.Payload = append([]byte(nil), b[48:48+int(n)]...)
	}
	return ck, nil
}

// writeCheckpoint atomically writes ck into dir.
func writeCheckpoint(dir string, ck Checkpoint, noSync bool) error {
	b := encodeCheckpoint(ck)
	if err := writeFileAtomic(dir, ckptKind.name(ck.Seq), !noSync, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}); err != nil {
		return err
	}
	if noSync {
		return nil
	}
	return syncDir(dir)
}

// loadLatestCheckpoint returns the newest checkpoint that decodes intact
// (nil when none exists) plus the highest sequence number present on
// disk, intact or not, so new checkpoints never reuse a sequence.
func loadLatestCheckpoint(dir string) (*Checkpoint, uint64, error) {
	seqs, err := ckptKind.list(dir)
	if err != nil {
		return nil, 0, err
	}
	var maxSeq uint64
	if len(seqs) > 0 {
		maxSeq = seqs[len(seqs)-1]
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		b, err := os.ReadFile(filepath.Join(dir, ckptKind.name(seqs[i])))
		if err != nil {
			return nil, 0, err
		}
		ck, err := decodeCheckpoint(b)
		if err != nil {
			// A corrupt checkpoint is superseded data, not fatal:
			// fall back to the previous one.
			continue
		}
		return &ck, maxSeq, nil
	}
	return nil, maxSeq, nil
}

// pruneCheckpoints deletes superseded checkpoints, keeping the newest
// `keep` files at or below seq.
func pruneCheckpoints(dir string, seq uint64, keep int) error {
	seqs, err := ckptKind.list(dir)
	if err != nil {
		return err
	}
	kept := 0
	for i := len(seqs) - 1; i >= 0; i-- {
		if seqs[i] <= seq {
			kept++
			if kept <= keep {
				continue
			}
		} else if kept == 0 {
			// Never delete a checkpoint newer than the one just
			// written; it should not exist, but losing data on a
			// sequencing bug would be worse than keeping a file.
			continue
		}
		if err := os.Remove(filepath.Join(dir, ckptKind.name(seqs[i]))); err != nil {
			return err
		}
	}
	return nil
}

// removeCheckpointsAfter deletes every checkpoint whose round high-water
// mark lies past round, plus any that no longer decode — the truncation
// path's way of keeping only checkpoints that still describe real data.
func removeCheckpointsAfter(dir string, round int64) error {
	seqs, err := ckptKind.list(dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		path := filepath.Join(dir, ckptKind.name(seq))
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		ck, err := decodeCheckpoint(b)
		if err == nil && ck.Round <= round {
			continue
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return nil
}
