package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cole/internal/types"
	"cole/internal/vfs"
)

// TestMissingRunFileDetectedOnOpen simulates a crash that lost a data file
// the manifest references: the open must fail loudly, never silently serve
// partial state.
func TestMissingRunFileDetectedOnOpen(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 41, 100, 5, 20)
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Remove one value file referenced by the manifest.
	matches, err := filepath.Glob(filepath.Join(opts.Dir, "run-*.val"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no run files found: %v", err)
	}
	if err := os.Remove(matches[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("missing run file must fail open")
	}
}

// TestTruncatedValueFileDetected corrupts a value file's length: the size
// check at open must reject it.
func TestTruncatedValueFileDetected(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 43, 100, 5, 20)
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	matches, _ := filepath.Glob(filepath.Join(opts.Dir, "run-*.val"))
	if len(matches) == 0 {
		t.Fatal("no value files")
	}
	st, err := os.Stat(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(matches[0], st.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("truncated value file must fail open")
	}
}

// TestTornManifestTmpIgnored simulates a crash between writing the
// manifest temp file and renaming it: the temp must be ignored and the
// previous manifest used.
func TestTornManifestTmpIgnored(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 47, 100, 5, 20)
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	h := e.Height()
	e.Close()

	if err := os.WriteFile(filepath.Join(opts.Dir, "MANIFEST.tmp"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Height() != h {
		t.Fatalf("height %d after torn tmp, want %d", e2.Height(), h)
	}
	addr := types.AddressFromUint64(1)
	want, wantOK := o.latest(addr)
	v, ok, err := e2.Get(addr)
	if err != nil || ok != wantOK || (ok && v != want.Value) {
		t.Fatalf("state wrong after torn manifest tmp: %v", err)
	}
}

// TestProofMarshalRoundTrip serializes a provenance proof across the
// "wire" and verifies the decoded copy.
func TestProofMarshalRoundTrip(t *testing.T) {
	e := openEngine(t, testOpts(t, true))
	o := newOracle()
	root := runWorkload(t, e, o, 53, 200, 5, 30)
	addr := types.AddressFromUint64(7)

	want, proof, err := e.ProvQuery(addr, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := proof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty encoding")
	}
	decoded, err := UnmarshalProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VerifyProv(root, addr, 50, 150, decoded)
	if err != nil {
		t.Fatalf("decoded proof failed verification: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded proof yields %d versions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("version %d mismatch after round trip", i)
		}
	}
	// Corrupted wire bytes must fail to decode or to verify.
	raw[len(raw)/2] ^= 0xFF
	if p2, err := UnmarshalProof(raw); err == nil {
		if _, err := VerifyProv(root, addr, 50, 150, p2); err == nil {
			t.Fatal("corrupted encoding verified")
		}
	}
}

// TestMergeWaitBackpressure forces slow merges to verify the commit
// checkpoint blocks rather than corrupting state (Algorithm 5 line 9).
func TestMergeWaitBackpressure(t *testing.T) {
	opts := testOpts(t, true)
	opts.MemCapacity = 8 // flush every ~2 blocks: merges constantly in flight
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 59, 400, 5, 10)
	if e.Stats().MergeWaits == 0 {
		t.Skip("no merge waits observed on this machine; nothing to assert")
	}
	for a := 0; a < 10; a++ {
		addr := types.AddressFromUint64(uint64(a))
		want, wantOK := o.latest(addr)
		v, ok, err := e.Get(addr)
		if err != nil || ok != wantOK || (ok && v != want.Value) {
			t.Fatalf("state wrong under merge back-pressure: %v", err)
		}
	}
}

// TestBloomFalsePositiveFallback forces a sky-high false-positive rate:
// lookups must still be correct, just slower (the paper's design note:
// bloom hits fall through to the real search).
func TestBloomFalsePositiveFallback(t *testing.T) {
	opts := testOpts(t, false)
	opts.BloomFP = 0.9 // nearly useless filters
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 61, 150, 5, 25)
	for a := 0; a < 25; a++ {
		addr := types.AddressFromUint64(uint64(a))
		want, wantOK := o.latest(addr)
		v, ok, err := e.Get(addr)
		if err != nil || ok != wantOK || (ok && v != want.Value) {
			t.Fatalf("state wrong with degenerate blooms: %v", err)
		}
	}
	// Absent addresses must still miss.
	for a := 1000; a < 1020; a++ {
		if _, ok, _ := e.Get(types.AddressFromUint64(uint64(a))); ok {
			t.Fatal("false positive leaked a phantom value")
		}
	}
}

// TestOptimalPLAEngineEquivalence runs the same workload with both PLA
// builders: query results and Hstate must be identical except for index
// internals (Hstate covers data and Merkle roots, not models — so even
// Hstate matches).
func TestOptimalPLAEngineEquivalence(t *testing.T) {
	optsG := testOpts(t, false)
	optsO := testOpts(t, false)
	optsO.OptimalPLA = true
	g := openEngine(t, optsG)
	op := openEngine(t, optsO)
	og, oo := newOracle(), newOracle()
	rg := runWorkload(t, g, og, 67, 200, 5, 30)
	ro := runWorkload(t, op, oo, 67, 200, 5, 30)
	if rg != ro {
		t.Fatal("Hstate must not depend on the PLA builder (models are unauthenticated)")
	}
	for a := 0; a < 30; a++ {
		addr := types.AddressFromUint64(uint64(a))
		v1, ok1, err1 := g.Get(addr)
		v2, ok2, err2 := op.Get(addr)
		if err1 != nil || err2 != nil || ok1 != ok2 || v1 != v2 {
			t.Fatalf("builders disagree at addr %d: %v %v", a, err1, err2)
		}
	}
}

// TestDirIsFileFails covers a pathological environment.
func TestDirIsFileFails(t *testing.T) {
	f := filepath.Join(t.TempDir(), "notadir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: f}); err == nil {
		t.Fatal("file-as-dir must fail")
	}
	if _, err := Open(Options{Dir: filepath.Join(f, "sub")}); err == nil {
		t.Fatal("dir under a file must fail")
	}
}

// TestManifestRejectsUnknownFieldsGracefully ensures forward-compat junk
// in the manifest directory doesn't break opens.
func TestStrayNonRunFilesIgnored(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 71, 60, 5, 10)
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	for _, name := range []string{"notes.txt", "run.backup", "LOCK"} {
		if err := os.WriteFile(filepath.Join(opts.Dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for _, name := range []string{"notes.txt", "run.backup", "LOCK"} {
		if _, err := os.Stat(filepath.Join(opts.Dir, name)); err != nil {
			t.Fatalf("unrelated file %s was deleted", name)
		}
	}
	if !strings.HasPrefix(filepath.Base(e2.manifestPath()), "MANIFEST") {
		t.Fatal("sanity")
	}
}

// TestCheckpointHeightIsDurable fails the manifest write of a cascading
// commit and checks that CheckpointHeight never reports a checkpoint
// whose manifest did not land: the commit returns before its manifest
// is written, the failure surfaces at the next join (FlushAll here), and
// both the live engine and a reopen must still report the previous
// checkpoint.
func TestCheckpointHeightIsDurable(t *testing.T) {
	const memCap = 8
	open := func(fs *vfs.MemFS) *Engine {
		e, err := Open(Options{Dir: "db", MemCapacity: memCap, SizeRatio: 4, Fanout: 4, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Every block fills L0, so every commit cascades (a sync-mode flush;
	// SizeRatio 4 keeps these first two flushes merge-free).
	commit := func(e *Engine, h uint64) {
		if err := e.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < memCap; i++ {
			if err := e.Put(types.AddressFromUint64(h*100+uint64(i)), types.ValueFromUint64(h)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Dry run to locate block 2's manifest rename. Sync-mode flushes run
	// inline and each cascade joins the previous manifest write first, so
	// the operation sequence is deterministic; block 2's manifest write
	// (open, write, sync, close, rename, dir sync) is the last I/O of the
	// run once it has been joined, so its rename is the next-to-last op.
	dry := vfs.NewMem()
	e := open(dry)
	commit(e, 1)
	commit(e, 2)
	e.mu.Lock()
	err := e.joinCommitIOLocked()
	e.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	rename := dry.OpCount() - 1
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	fs := vfs.NewMem()
	fs.FailAt(rename, nil)
	e = open(fs)
	commit(e, 1)
	commit(e, 2)
	if err := e.FlushAll(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("FlushAll = %v, want the injected manifest-write failure", err)
	}
	if ck := e.CheckpointHeight(); ck != 1 {
		t.Fatalf("CheckpointHeight = %d after block 2's manifest write failed, want the durable 1", ck)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := open(fs)
	defer e2.Close()
	if ck := e2.CheckpointHeight(); ck != 1 {
		t.Fatalf("reopened CheckpointHeight = %d, want 1", ck)
	}
}
