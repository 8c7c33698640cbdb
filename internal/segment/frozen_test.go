package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	lscrcore "lscr/internal/lscr"
	"lscr/internal/testkg"
)

// frozenSegmentSHA256 is the SHA-256 of the segment Write produces for
// the paper's running example with K=3, Seed=7.
const frozenSegmentSHA256 = "3e17b1b54d61db0e69c1f91bfadde2ba31738e620f29089e16b8fa2252fff810"

// TestSegmentFormatFrozen pins the segment bytes for one fixed input.
// The segment magic is the only version the on-disk format carries — it
// covers the embedded index payload too — so any byte that changes here
// is a format change, and readers of old stores would misread them
// unless the magic moves with it.
func TestSegmentFormatFrozen(t *testing.T) {
	g, _ := testkg.RunningExample()
	idx := lscrcore.NewLocalIndex(g, lscrcore.IndexParams{K: 3, Seed: 7})
	path, err := Write(t.TempDir(), 0, g, idx, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != frozenSegmentSHA256 {
		t.Fatalf("segment layout changed: bump segMagic, then update this hash (%d bytes, sha256 %s)", len(data), got)
	}
}
