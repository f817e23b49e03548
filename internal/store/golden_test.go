package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// goldenFiles are the SHA-256 digests of writeGoldenFixture's files. They
// were recorded before the three logs shared one segment layer; any
// change here is an on-disk format change and needs a version bump.
var goldenFiles = map[string]string{
	"obs/ckpt-0000000000000005.ckpt": "78ff8fe3a2b1f5df10e6e5e2b8e6d4e05cd0935821a77ca19032159890126320",
	"obs/ckpt-0000000000000006.ckpt": "39e76a4df583ad67f6cc95fef2d45dbc1e9c5b80d7eafb57e3fadbe634599f03",
	"obs/seg-000000.log":             "4d84a7ff6b6c1c2ef82a0a953ea61afcbe4b121a88c710d89a0f4f7f8844a00d",
	"obs/seg-000001.log":             "302d923c9bf9e76809ca88218fd761769158d35c8c2163ce6d34ccf6bc31eba3",
	"obs/seg-000002.log":             "6c10273f6959a73b49b55e7e0e0b28fd7a2cfc9c3b4c863824dd5f3db11bc67a",
	"rpt/rpt-000000.seg":             "7e82e91a2ae9eb4dfb33bf86b7e837689fed211669e5abf7f146d09c3303d1e1",
	"rpt/rpt-000001.seg":             "d6e5cfa6880de4899422c269d78991bf19b4cf98ebe24a4129a31203eef71d68",
}

// writeGoldenFixture writes one of every durable file the store
// produces, using only the exported API: three rotated observation
// segments with two checkpoints that carry payloads and two rotated report
// segments.
func writeGoldenFixture(t *testing.T, root string) {
	t.Helper()
	s, err := Open(filepath.Join(root, "obs"), Options{SegmentSize: 1024, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	s.SetCheckpointPayload(func() []byte {
		ckpts++
		return []byte(fmt.Sprintf("golden checkpoint %d", ckpts))
	})
	appendRounds(t, s, 6, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := CreateReportLog(filepath.Join(root, "rpt"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5a}, 21<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFiles pins the bytes of every durable format.
func TestGoldenFiles(t *testing.T) {
	root := t.TempDir()
	writeGoldenFixture(t, root)
	got := make(map[string]string)
	for _, sub := range []string{"obs", "rpt"} {
		entries, err := os.ReadDir(filepath.Join(root, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(root, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[sub+"/"+e.Name()] = hex.EncodeToString(sum[:])
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var listing bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&listing, "\t%q: %q,\n", name, got[name])
	}
	if len(got) != len(goldenFiles) {
		t.Fatalf("fixture wrote %d files, want %d:\n%s", len(got), len(goldenFiles), listing.String())
	}
	for name, want := range goldenFiles {
		if got[name] != want {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], want)
		}
	}
	if t.Failed() {
		t.Logf("fixture digests:\n%s", listing.String())
	}
}
