package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// Checkpoint commits a fully persisted round: the newest intact one is
// the store's commit point, and Open keeps exactly the Scans records it
// counts. Payload is an opaque informational snapshot (see
// SetCheckpointPayload).
type Checkpoint struct {
	// Seq orders checkpoints; higher supersedes lower. The first is 1.
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
	if err := writeFileAtomic(dir, ckptKind.name(ck.Seq), !noSync, encodeCheckpoint(ck)); err != nil {
		return err
	}
	if noSync {
		return nil
	}
	return syncDir(dir)
}

// loadLatestCheckpoint returns the newest checkpoint that decodes intact
// (the zero value when none does) plus the highest sequence number present
// on disk, intact or not, so new checkpoints never reuse a sequence. It
// deletes the undecodable checkpoints newer than the one it returns, so
// retention never keeps one of them in place of an intact predecessor.
func loadLatestCheckpoint(dir string) (Checkpoint, uint64, error) {
	seqs, err := ckptKind.list(dir)
	if err != nil || len(seqs) == 0 {
		return Checkpoint{}, 0, err
	}
	maxSeq := seqs[len(seqs)-1]
	for i := len(seqs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, ckptKind.name(seqs[i]))
		b, err := os.ReadFile(path)
		if err != nil {
			return Checkpoint{}, 0, err
		}
		if ck, err := decodeCheckpoint(b); err == nil {
			return ck, maxSeq, nil
		}
		// A corrupt checkpoint is superseded data, not fatal: drop it
		// and fall back to the previous one.
		if err := os.Remove(path); err != nil {
			return Checkpoint{}, 0, err
		}
	}
	return Checkpoint{}, maxSeq, nil
}

// pruneCheckpoints deletes superseded checkpoints, keeping the newest two
// at or below seq: the commit point and its fallback.
func pruneCheckpoints(dir string, seq uint64) error {
	seqs, err := ckptKind.list(dir)
	if err != nil {
		return err
	}
	kept := 0
	for i := len(seqs) - 1; i >= 0; i-- {
		if seqs[i] <= seq {
			kept++
			if kept <= 2 {
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
