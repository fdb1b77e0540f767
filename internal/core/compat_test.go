package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cole/internal/types"
)

// driveBlocks commits n deterministic blocks of 8 updates over a small
// address population (so addresses gather many versions) and returns the
// per-block digests.
func driveBlocks(t *testing.T, e *Engine, n int) []types.Hash {
	t.Helper()
	var roots []types.Hash
	start := int(e.Height())
	for b := start + 1; b <= start+n; b++ {
		if err := e.BeginBlock(uint64(b)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			addr := types.AddressFromUint64(uint64((b*7 + i*13) % 40))
			if err := e.Put(addr, types.ValueFromUint64(uint64(b*100+i))); err != nil {
				t.Fatal(err)
			}
		}
		root, err := e.Commit()
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, root)
	}
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return roots
}

// runFileBytes maps every run file in an engine directory to its bytes.
func runFileBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if !strings.HasPrefix(de.Name(), "run-") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = raw
	}
	return out
}

// Pinned on-disk format of the 60-block golden sequence (MemCapacity
// 32, SizeRatio 2, fanout 4): the SHA-256 of every per-block Hstate in
// order, and the SHA-256 of every run file (name, then bytes) in name
// order after FlushAll. Any change to either is a format or digest
// change, never a refactor.
var pinnedDigests = map[bool]struct{ roots, files string }{
	false: {
		roots: "ff4f0cf495ce10375dda6e7952a6d5ecb502f35be693aabec9c9853dbb102828",
		files: "68d6feb92036827cf47ff5af3ebabc5d5fa931691e59419aa51609b94172e19f",
	},
	true: {
		roots: "f25ae6c43f2f3fa6364e2d04ae20404e4c5a67982637e8c0c3596d8485dd6af8",
		files: "0b9b38bb4cd79ef0a44342ea55a0aaddd9e37c91fadec453364695e8923f15e9",
	},
}

// TestEngineDigestsPinned drives the golden block sequence through sync
// (COLE) and async (COLE*) engines and compares the per-block digests
// and the run files' bytes against the pinned constants, so a refactor
// of the build path is checked against fixed bytes rather than a second
// code path.
func TestEngineDigestsPinned(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			opts := testOpts(t, async)
			roots := driveBlocks(t, openEngine(t, opts), 60) // several cascades deep
			rh := sha256.New()
			for _, r := range roots {
				rh.Write(r[:])
			}
			files := runFileBytes(t, opts.Dir)
			names := make([]string, 0, len(files))
			for name := range files {
				names = append(names, name)
			}
			sort.Strings(names)
			fh := sha256.New()
			for _, name := range names {
				fh.Write([]byte(name))
				fh.Write(files[name])
			}
			want := pinnedDigests[async]
			if got := hex.EncodeToString(rh.Sum(nil)); got != want.roots {
				t.Errorf("per-block Hstate digest = %s, want %s", got, want.roots)
			}
			if got := hex.EncodeToString(fh.Sum(nil)); got != want.files {
				t.Errorf("run files (%d) digest = %s, want %s", len(names), got, want.files)
			}
		})
	}
}

// TestMergeStatsAccounting sanity-checks the new compaction counters:
// cascades must account flush and merge volume, and the point-read
// cache totals must survive run retirement.
func TestMergeStatsAccounting(t *testing.T) {
	e := openEngine(t, testOpts(t, false))
	driveBlocks(t, e, 60)
	st := e.Stats()
	if st.Flushes == 0 || st.FlushBytes == 0 {
		t.Fatalf("no flush volume accounted: %+v", st)
	}
	if st.Merges == 0 || st.MergeBytes == 0 || st.MergeNanos == 0 {
		t.Fatalf("no merge volume/time accounted: %+v", st)
	}

	// Point reads against merged-away runs accumulate into the totals.
	before := e.Stats()
	for i := 0; i < 40; i++ {
		if _, _, err := e.Get(types.AddressFromUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	mid := e.Stats()
	if mid.PageReads+mid.CacheHits <= before.PageReads+before.CacheHits {
		t.Fatalf("reads did not move cache counters: %+v -> %+v", before, mid)
	}
	driveBlocks(t, e, 60) // retire runs via further cascades
	after := e.Stats()
	if after.PageReads < mid.PageReads {
		t.Fatalf("retirement lost page-read history: %d -> %d", mid.PageReads, after.PageReads)
	}
}
