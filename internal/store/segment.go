package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The store's two logs — campaign observations and Expect-Staple
// reports — share one file format. A segment
// is a 16-byte header
//
//	8-byte magic | u32 LE version | u32 LE segment index
//
// followed by frames back to back:
//
//	u32 LE payload length | u32 LE CRC32-C of payload | payload
//
// The length comes first so a scan can bound the payload before reading
// it, and the CRC covers only the payload: a torn frame header is caught
// by the length bounds or a short read, a torn payload by the checksum.
// Kinds differ only in magic, version and file name. What a payload means
// and what a damaged frame means are each log's own business (DESIGN.md
// §11): the layer reports damage, callers apply their policy.
const (
	segHeaderSize   = 16
	frameHeaderSize = 8
	// maxRecordSize bounds one payload. Records are a few hundred bytes;
	// a larger length field is corruption, not a real record.
	maxRecordSize = 1 << 20
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64
// and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errDamaged marks a torn or corrupt segment: a header cut short, or a
// frame whose header or payload is cut short, whose length is impossible,
// or whose checksum fails. A crash mid-append leaves exactly this.
var errDamaged = errors.New("store: damaged segment")

// segKind describes one kind of file: its header magic and version, and
// its name, prefix + zero-padded decimal index + suffix.
type segKind struct {
	magic   string
	version uint32
	prefix  string
	suffix  string
	digits  int
}

var (
	// obsKind is the observation log. Its segments run 0..n-1: nothing
	// merges sealed segments, and Open removes only whole segments past
	// the commit point, at the end of the log.
	obsKind = segKind{magic: "MSOBSLG1", version: codecVersion, prefix: "seg-", suffix: ".log", digits: 6}
	// reportKind is the Expect-Staple report log (reportlog.go).
	reportKind = segKind{magic: "MSRPTSG1", version: 1, prefix: "rpt-", suffix: ".seg", digits: 6}
	// ckptKind names checkpoints, indexed by sequence number. They are
	// single-blob files (checkpoint.go), not segments.
	ckptKind = segKind{magic: "MSOBSCK1", version: 1, prefix: "ckpt-", suffix: ".ckpt", digits: 16}
)

func (k segKind) name(index uint64) string {
	return fmt.Sprintf("%s%0*d%s", k.prefix, k.digits, index, k.suffix)
}

// parse returns the index in a file name of kind k.
func (k segKind) parse(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, k.prefix)
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, k.suffix); !ok {
		return 0, false
	}
	// Base 10 admits neither a sign nor underscores: digits only.
	n, err := strconv.ParseUint(digits, 10, 64)
	return n, err == nil
}

// list returns the indexes of the files of kind k in dir, ascending.
func (k segKind) list(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idx []uint64
	for _, e := range entries {
		if n, ok := k.parse(e.Name()); ok && !e.IsDir() {
			idx = append(idx, n)
		}
	}
	slices.Sort(idx)
	return idx, nil
}

func (k segKind) header(index uint64) [segHeaderSize]byte {
	var h [segHeaderSize]byte
	copy(h[:], k.magic)
	binary.LittleEndian.PutUint32(h[8:], k.version)
	binary.LittleEndian.PutUint32(h[12:], uint32(index))
	return h
}

// checkHeader reads and validates the header of segment index from r. A
// header cut short whose bytes all match is a torn write and wraps
// errDamaged; any other mismatch is no crash artifact.
func (k segKind) checkHeader(r io.Reader, index uint64) error {
	want := k.header(index)
	var got [segHeaderSize]byte
	n, err := io.ReadFull(r, got[:])
	if (err == io.EOF || err == io.ErrUnexpectedEOF) && bytes.Equal(got[:n], want[:n]) {
		return fmt.Errorf("%w: torn header (%d of %d bytes)", errDamaged, n, segHeaderSize)
	}
	if err != nil {
		return fmt.Errorf("store: segment header: %w", err)
	}
	if string(got[:8]) != k.magic {
		return fmt.Errorf("store: bad segment magic %q, want %q", got[:8], k.magic)
	}
	if v := binary.LittleEndian.Uint32(got[8:]); v != k.version {
		return fmt.Errorf("store: %s segment version %d, want %d", k.magic, v, k.version)
	}
	if i := binary.LittleEndian.Uint32(got[12:]); uint64(i) != index {
		return fmt.Errorf("store: segment header index %d does not match name index %d", i, index)
	}
	return nil
}

// removeAll deletes the segments of kind k in dir: a run's leftovers
// that must not be read as part of the next one.
func (k segKind) removeAll(dir string) error {
	idx, err := k.list(dir)
	if err != nil {
		return err
	}
	for _, i := range idx {
		if err := os.Remove(filepath.Join(dir, k.name(i))); err != nil {
			return err
		}
	}
	return nil
}

// create makes segment index of kind k in dir. The header goes straight
// to the file, not through a buffer, so a Reader snapshot of a fresh
// segment can read it. flag is os.O_EXCL to refuse an existing file or
// os.O_TRUNC to replace one.
func (k segKind) create(dir string, index uint64, flag int) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, k.name(index)), os.O_CREATE|os.O_WRONLY|flag, 0o644)
	if err != nil {
		return nil, err
	}
	h := k.header(index)
	if _, err := f.Write(h[:]); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return f, nil
}

// scan reads segment index of kind k from r — the header, then frames to
// the end of r — calling fn with each intact payload and its offset. It
// returns the committed offset, just past the last intact frame (0 when
// the header itself is torn). Damage stops the scan with an error
// wrapping errDamaged; fn's first error stops it and is returned as is.
// name labels errors. The payload is only valid during fn.
func (k segKind) scan(r io.Reader, name string, index uint64, buf *[]byte, fn func(payload []byte, off int64) error) (int64, error) {
	if err := k.checkHeader(r, index); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	off := int64(segHeaderSize)
	damaged := func(what string) error {
		return fmt.Errorf("%w: %s offset %d: %s", errDamaged, name, off, what)
	}
	var hdr [frameHeaderSize]byte
	for {
		switch _, err := io.ReadFull(r, hdr[:]); err {
		case nil:
		case io.EOF:
			return off, nil
		case io.ErrUnexpectedEOF:
			return off, damaged("torn frame header")
		default:
			return off, fmt.Errorf("%s offset %d: %w", name, off, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		if n == 0 || n > maxRecordSize {
			return off, damaged(fmt.Sprintf("impossible frame length %d", n))
		}
		if int(n) > cap(*buf) {
			*buf = make([]byte, n)
		}
		payload := (*buf)[:n]
		switch _, err := io.ReadFull(r, payload); err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return off, damaged("torn frame payload")
		default:
			return off, fmt.Errorf("%s offset %d: %w", name, off, err)
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:]) {
			return off, damaged("frame failed its checksum")
		}
		at := off
		off += frameHeaderSize + int64(n)
		if err := fn(payload, at); err != nil {
			return off, err
		}
	}
}

// scanFile scans the segment file at path, or only its first limit
// bytes when limit >= 0.
func (k segKind) scanFile(path string, index uint64, limit int64, buf *[]byte, fn func(payload []byte, off int64) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close() //lint:allow errcheck-hot read-only handle, nothing to flush
	var r io.Reader = f
	if limit >= 0 {
		r = io.LimitReader(f, limit)
	}
	return k.scan(bufio.NewReaderSize(r, 64<<10), path, index, buf, fn)
}

// scanLog scans every segment of a log that nothing cuts back (the report
// log). Its segments must be exactly 0..n-1 — a gap is an error, not a
// shorter log — and any damage is an error.
func (k segKind) scanLog(dir string, fn func(payload []byte) error) error {
	idx, err := k.list(dir)
	if err != nil {
		return err
	}
	n := len(idx)
	for i, got := range idx {
		if got != uint64(i) {
			return fmt.Errorf("store: %s holds %d %s* segment(s), want exactly indexes 0..%d", dir, n, k.prefix, n-1)
		}
	}
	var buf []byte
	visit := func(payload []byte, _ int64) error { return fn(payload) }
	for i := uint64(0); i < uint64(n); i++ {
		if _, err := k.scanFile(filepath.Join(dir, k.name(i)), i, -1, &buf, visit); err != nil {
			return err
		}
	}
	return nil
}

// frameFits reports whether payload can be framed: frames are never
// empty and never longer than maxRecordSize.
func frameFits(payload []byte) bool {
	return len(payload) > 0 && len(payload) <= maxRecordSize
}

// frameWriter appends frames to one segment file through a buffer.
type frameWriter struct {
	f  *os.File
	bw *bufio.Writer
	// hdr lives here because a local array would escape through bw.Write
	// and cost an allocation per frame.
	hdr [frameHeaderSize]byte
	// size counts the segment's bytes, header included, flushed or not.
	size int64
}

func newFrameWriter(f *os.File, size int64, bufSize int) *frameWriter {
	return &frameWriter{f: f, bw: bufio.NewWriterSize(f, bufSize), size: size}
}

// reset points w at another segment file that already holds size bytes.
func (w *frameWriter) reset(f *os.File, size int64) {
	w.f, w.size = f, size
	w.bw.Reset(f)
}

// append frames payload into the buffer.
//
//lint:allocfree
func (w *frameWriter) append(payload []byte) error {
	if !frameFits(payload) {
		//lint:allow allocfree rejected-payload error path; an accepted frame never reaches it
		return fmt.Errorf("store: payload of %d bytes is outside the frame limits 1..%d", len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(w.hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.size += frameHeaderSize + int64(len(payload))
	return nil
}

func (w *frameWriter) flush() error { return w.bw.Flush() }

// close flushes the buffer, fsyncs when sync is set, and closes the file.
// Closing a closed writer does nothing.
func (w *frameWriter) close(sync bool) error {
	if w.f == nil {
		return nil
	}
	err := w.bw.Flush()
	if err == nil && sync {
		err = w.f.Sync()
	}
	err = errors.Join(err, w.f.Close())
	w.f = nil
	return err
}

// writeFileAtomic writes data to dir/name through a temporary file and a
// rename, so readers see the old file or the new one, never a torn one.
// With sync set the data is fsynced before the rename; making the rename
// itself durable (syncDir) is left to the caller.
func writeFileAtomic(dir, name string, sync bool, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	return nil
}

// syncDir fsyncs a directory so renames and removals within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
