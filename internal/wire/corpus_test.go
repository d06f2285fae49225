package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteSeedCorpus regenerates the committed fuzz seed corpus under
// testdata/fuzz/FuzzDecode from the canonical seed frames. It only writes
// when WIRE_WRITE_CORPUS=1 is set; a normal test run instead verifies
// that every committed seed still decodes, so corpus and codec cannot
// drift apart silently.
func TestWriteSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if os.Getenv("WIRE_WRITE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		// Drop every old seed first, so seeds of retired frame shapes do
		// not outlive the regeneration.
		old, err := filepath.Glob(filepath.Join(dir, "seed-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range old {
			if err := os.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		for i, frame := range seedFrames(t) {
			b, err := Encode(frame)
			if err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
			name := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing (regenerate with WIRE_WRITE_CORPUS=1): %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("seed corpus directory is empty")
	}
	// Every committed seed must still decode, and together the seeds must
	// witness every (version, kind) header the canonical frames produce.
	// The wirekind analyzer audits the declared FrameKind×version pairs
	// against this same corpus; this gate keeps the corpus itself honest,
	// so neither side can rot without a red build.
	want := make(map[[2]byte]bool)
	for _, frame := range seedFrames(t) {
		b, err := Encode(frame)
		if err != nil {
			t.Fatal(err)
		}
		want[[2]byte{b[1], b[2]}] = true
	}
	got := make(map[[2]byte]bool)
	for _, e := range entries {
		name := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := corpusBytes(string(data))
		if !ok {
			t.Errorf("%s: not a parseable go-fuzz corpus file", name)
			continue
		}
		if _, err := Decode(b); err != nil {
			t.Errorf("%s: committed seed no longer decodes: %v", name, err)
			continue
		}
		if len(b) >= 3 {
			got[[2]byte{b[1], b[2]}] = true
		}
	}
	for hdr := range want {
		if !got[hdr] {
			t.Errorf("no committed seed covers version %d kind %d (regenerate with WIRE_WRITE_CORPUS=1)", hdr[0], hdr[1])
		}
	}
}

// TestCorpusSeedsMatchDisk pins the embedded corpus (what the
// byzantine-replay scenario feeds a live cluster) to the on-disk files a
// fuzz run reads: same count, same bytes, every seed decodable.
func TestCorpusSeedsMatchDisk(t *testing.T) {
	seeds, err := CorpusSeeds()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != len(entries) {
		t.Fatalf("embedded %d seeds, disk has %d", len(seeds), len(entries))
	}
	for _, s := range seeds {
		raw, err := os.ReadFile(filepath.Join(dir, s.Name))
		if err != nil {
			t.Fatal(err)
		}
		b, ok := corpusBytes(string(raw))
		if !ok {
			t.Fatalf("%s: unparseable on disk", s.Name)
		}
		if string(b) != string(s.Data) {
			t.Errorf("%s: embedded bytes differ from disk", s.Name)
		}
		if _, err := Decode(s.Data); err != nil {
			t.Errorf("%s: embedded seed does not decode: %v", s.Name, err)
		}
	}
}
