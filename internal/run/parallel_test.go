package run

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cole/internal/types"
)

// buildSources materializes k disjoint runs from round-robin slices of
// the entry set, returning them sorted by slot (the level-merge shape).
func buildSources(t *testing.T, dir string, entries []types.Entry, k int, params Params) []*Run {
	t.Helper()
	runs := make([]*Run, k)
	for i, part := range splitSorted(entries, k) {
		r, err := Build(dir, uint64(100+i), int64(len(part)), params, NewSliceIterator(part))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		runs[i] = r
	}
	return runs
}

// TestBuildPartitionedGolden is the byte-identity oracle of partitioned
// merges: the same k-way merge built sequentially and partitioned at
// W ∈ {1, 2, 4, 8} must produce byte-identical .val/.idx/.mrk/.met
// files and equal digests — for both PLA builders, and regardless of
// whether the spans run inline or on concurrent goroutines.
func TestBuildPartitionedGolden(t *testing.T) {
	entries := genEntries(7, 800, 8)
	count := int64(len(entries))
	for _, optimal := range []bool{false, true} {
		params := Params{Fanout: 4, OptimalPLA: optimal}
		srcDir := t.TempDir()
		sources := buildSources(t, srcDir, entries, 3, params)

		seqDir := t.TempDir()
		seq, err := Build(seqDir, 1, count, params, MergeRuns(sources))
		if err != nil {
			t.Fatal(err)
		}
		seq.Close()
		want := runFiles(t, seqDir, 1)

		for _, width := range []int{1, 2, 4, 8} {
			spans, err := PlanRuns(sources, width, params.PageSize)
			if err != nil {
				t.Fatalf("optimal=%v width=%d: plan: %v", optimal, width, err)
			}
			par := Parallel{}
			if width > 1 {
				par.Spawn = func(fn func()) { go fn() }
			}
			parDir := t.TempDir()
			got, err := BuildPartitioned(parDir, 1, count, params, spans,
				func(sp Span) (Iterator, error) { return MergeRunsRange(sources, sp), nil }, par)
			if err != nil {
				t.Fatalf("optimal=%v width=%d: %v", optimal, width, err)
			}
			if got.Digest() != runDigest(t, seqDir, params) {
				t.Errorf("optimal=%v width=%d: digest mismatch", optimal, width)
			}
			got.Close()
			gotFiles := runFiles(t, parDir, 1)
			for ext, wantRaw := range want {
				if !bytes.Equal(gotFiles[ext], wantRaw) {
					t.Errorf("optimal=%v width=%d: %s differs (%d vs %d bytes)",
						optimal, width, ext, len(gotFiles[ext]), len(wantRaw))
				}
			}
		}
	}
}

func runDigest(t *testing.T, dir string, params Params) types.Hash {
	t.Helper()
	r, err := Open(dir, 1, params)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return r.Digest()
}

// TestBuildPartitionedConcurrentPool drives the spans through a real
// bounded pool shape — more spans than workers, spawned concurrently —
// to exercise the shared-file writers under actual parallelism.
func TestBuildPartitionedConcurrentPool(t *testing.T) {
	entries := genEntries(11, 1200, 6)
	count := int64(len(entries))
	params := Params{Fanout: 8}
	srcDir := t.TempDir()
	sources := buildSources(t, srcDir, entries, 4, params)

	seqDir := t.TempDir()
	seq, err := Build(seqDir, 1, count, params, MergeRuns(sources))
	if err != nil {
		t.Fatal(err)
	}
	seq.Close()
	want := runFiles(t, seqDir, 1)

	spans, err := PlanRuns(sources, 8, params.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Two-worker pool: spans queue behind a semaphore like the real
	// scheduler's slot channel.
	sem := make(chan struct{}, 2)
	par := Parallel{
		Spawn: func(fn func()) {
			go func() {
				sem <- struct{}{}
				defer func() { <-sem }()
				fn()
			}()
		},
	}
	parDir := t.TempDir()
	got, err := BuildPartitioned(parDir, 1, count, params, spans,
		func(sp Span) (Iterator, error) { return MergeRunsRange(sources, sp), nil }, par)
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
	gotFiles := runFiles(t, parDir, 1)
	for ext, wantRaw := range want {
		if !bytes.Equal(gotFiles[ext], wantRaw) {
			t.Errorf("%s differs under pooled spans", ext)
		}
	}
}

// sliceSource adapts a sorted key slice to PlanSource for planner tests.
type sliceSource struct{ keys []types.CompoundKey }

func (s sliceSource) Count() int64 { return int64(len(s.keys)) }
func (s sliceSource) KeyAt(pos int64) (types.CompoundKey, error) {
	if pos < 0 || pos >= int64(len(s.keys)) {
		return types.CompoundKey{}, fmt.Errorf("KeyAt(%d) of %d", pos, len(s.keys))
	}
	return s.keys[pos], nil
}

// orderedAddr maps v to an address whose byte order matches its numeric
// order (AddressFromUint64 hashes, which scrambles ordering — fine for
// workloads, useless for constructing pre-sorted planner inputs).
func orderedAddr(v uint64) types.Address {
	b := make([]byte, types.AddressSize)
	binary.BigEndian.PutUint64(b[types.AddressSize-8:], v)
	return types.AddressFromBytes(b)
}

// TestPlanSkewedDistribution checks the planner on sources with heavily
// skewed, disjoint key ranges: spans must be page-aligned, contiguous,
// cover everything exactly once, and stay near byte-equal — no empty
// spans and no span more than twice the ideal share.
func TestPlanSkewedDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	mk := func(base uint64, n int, stride uint64) []types.CompoundKey {
		keys := make([]types.CompoundKey, n)
		next := base
		for i := range keys {
			next += 1 + uint64(r.Intn(int(stride)))
			keys[i] = types.CompoundKey{Addr: orderedAddr(next), Blk: 1}
		}
		return keys
	}
	// One giant dense source, one small source far above it, one source
	// interleaved across both ranges — ranks diverge wildly from naive
	// proportional splits.
	srcs := []PlanSource{
		sliceSource{mk(0, 40000, 3)},
		sliceSource{mk(1<<40, 700, 5)},
		sliceSource{mk(1<<20, 4000, 1<<22)},
	}
	var total int64
	for _, s := range srcs {
		total += s.Count()
	}
	const pageSize = 4096
	perPage := int64(pageSize / types.EntrySize)

	for _, width := range []int{2, 4, 8} {
		spans, err := Plan(srcs, width, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) != width {
			t.Fatalf("width %d: got %d spans", width, len(spans))
		}
		ideal := total / int64(width)
		var at int64
		for i, sp := range spans {
			if sp.Lo != at {
				t.Fatalf("width %d span %d: starts at %d, want %d", width, i, sp.Lo, at)
			}
			at = sp.Hi
			if i < len(spans)-1 && sp.Hi%perPage != 0 {
				t.Errorf("width %d span %d: boundary %d not page-aligned", width, i, sp.Hi)
			}
			size := sp.Hi - sp.Lo
			if size <= 0 {
				t.Fatalf("width %d span %d: empty", width, i)
			}
			if size > 2*ideal {
				t.Errorf("width %d span %d: %d entries, ideal %d", width, i, size, ideal)
			}
			var srcSum int64
			for j := range srcs {
				if sp.SrcLo[j] > sp.SrcHi[j] {
					t.Fatalf("width %d span %d src %d: inverted range", width, i, j)
				}
				srcSum += sp.SrcHi[j] - sp.SrcLo[j]
			}
			if srcSum != size {
				t.Errorf("width %d span %d: source ranges sum to %d, span holds %d", width, i, srcSum, size)
			}
		}
		if at != total {
			t.Fatalf("width %d: spans cover %d of %d", width, at, total)
		}
		// Boundary correctness: every key in span i sorts below every key
		// in span i+1, source by source against the global cut key.
		for i := 0; i < len(spans)-1; i++ {
			var maxBelow, minAbove *types.CompoundKey
			for j, s := range srcs {
				if hi := spans[i].SrcHi[j]; hi > spans[i].SrcLo[j] {
					k, _ := s.KeyAt(hi - 1)
					if maxBelow == nil || maxBelow.Less(k) {
						maxBelow = &k
					}
				}
				if lo := spans[i+1].SrcLo[j]; lo < spans[i+1].SrcHi[j] {
					k, _ := s.KeyAt(lo)
					if minAbove == nil || k.Less(*minAbove) {
						minAbove = &k
					}
				}
			}
			if maxBelow != nil && minAbove != nil && !maxBelow.Less(*minAbove) {
				t.Errorf("width %d: cut %d not key-ordered: %v !< %v", width, i, maxBelow, minAbove)
			}
		}
	}
}

// TestPlanTinyInput: a merge smaller than one page per span collapses to
// fewer spans instead of producing empties.
func TestPlanTinyInput(t *testing.T) {
	keys := make([]types.CompoundKey, 5)
	for i := range keys {
		keys[i] = types.CompoundKey{Addr: types.AddressFromUint64(uint64(i)), Blk: 1}
	}
	spans, err := Plan([]PlanSource{sliceSource{keys}}, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Lo != 0 || spans[0].Hi != 5 {
		t.Fatalf("got %+v", spans)
	}
}

// TestIterRangeMatchesFullScan: bounded sub-iterators concatenated over
// a span partition replay the full iterator, entries and leaf hashes.
func TestIterRangeMatchesFullScan(t *testing.T) {
	entries := genEntries(3, 300, 5)
	r := buildRun(t, entries, Params{Fanout: 4})

	var got []types.Entry
	var hashes []types.Hash
	n := r.Count()
	for _, cut := range [][2]int64{{0, n / 3}, {n / 3, n / 2}, {n / 2, n}} {
		it := r.IterRange(cut[0], cut[1])
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			h, err := it.LeafHash()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, e)
			hashes = append(hashes, h)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(entries) {
		t.Fatalf("ranges yielded %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		if got[i] != e {
			t.Fatalf("entry %d mismatch", i)
		}
		if hashes[i] != types.HashEntry(e) {
			t.Fatalf("leaf hash %d mismatch", i)
		}
	}
}

// TestKeyAt probes random positions against the in-memory reference.
func TestKeyAt(t *testing.T) {
	entries := genEntries(5, 200, 4)
	r := buildRun(t, entries, Params{Fanout: 4})
	rng := rand.New(rand.NewSource(9))
	for probe := 0; probe < 100; probe++ {
		pos := int64(rng.Intn(len(entries)))
		k, err := r.KeyAt(pos)
		if err != nil {
			t.Fatal(err)
		}
		if k != entries[pos].Key {
			t.Fatalf("KeyAt(%d) = %v, want %v", pos, k, entries[pos].Key)
		}
	}
}

// TestPlanRandomizedOracle cross-checks planned spans against an exact
// in-memory merge for many random source shapes: concatenating the
// per-source ranges span by span must reproduce the full sorted stream.
func TestPlanRandomizedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		nSrc := 1 + rng.Intn(5)
		var all []types.CompoundKey
		srcs := make([]PlanSource, nSrc)
		slices := make([][]types.CompoundKey, nSrc)
		next := uint64(0)
		for i := 0; i < nSrc; i++ {
			n := 1 + rng.Intn(3000)
			keys := make([]types.CompoundKey, n)
			for j := range keys {
				next += 1 + uint64(rng.Intn(7))
				keys[j] = types.CompoundKey{Addr: types.AddressFromUint64(next), Blk: 1}
			}
			slices[i] = keys
			all = append(all, keys...)
		}
		// Shuffle key ranges between sources: reassign each key to a
		// random source, keeping per-source order.
		for i := range slices {
			slices[i] = slices[i][:0]
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
		for _, k := range all {
			i := rng.Intn(nSrc)
			slices[i] = append(slices[i], k)
		}
		nonEmpty := false
		for i := range slices {
			srcs[i] = sliceSource{slices[i]}
			nonEmpty = nonEmpty || len(slices[i]) > 0
		}
		if !nonEmpty {
			continue
		}
		width := 1 + rng.Intn(8)
		spans, err := Plan(srcs, width, 4096)
		if err != nil {
			t.Fatal(err)
		}
		var replay []types.CompoundKey
		for _, sp := range spans {
			var spanKeys []types.CompoundKey
			for j := range srcs {
				spanKeys = append(spanKeys, slices[j][sp.SrcLo[j]:sp.SrcHi[j]]...)
			}
			sort.Slice(spanKeys, func(a, b int) bool { return spanKeys[a].Less(spanKeys[b]) })
			replay = append(replay, spanKeys...)
		}
		if len(replay) != len(all) {
			t.Fatalf("trial %d: replay has %d keys, want %d", trial, len(replay), len(all))
		}
		for i := range all {
			if replay[i] != all[i] {
				t.Fatalf("trial %d: key %d out of order across spans", trial, i)
			}
		}
	}
}

// TestBuildPartitionedSpanErrorAborts: a failing span must surface its
// error and leave no run files behind.
func TestBuildPartitionedSpanErrorAborts(t *testing.T) {
	entries := genEntries(13, 400, 4)
	count := int64(len(entries))
	params := Params{Fanout: 4}
	srcDir := t.TempDir()
	sources := buildSources(t, srcDir, entries, 2, params)
	spans, err := PlanRuns(sources, 4, params.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) < 2 {
		t.Skip("input too small to partition")
	}
	var once sync.Once
	parDir := t.TempDir()
	_, err = BuildPartitioned(parDir, 1, count, params, spans,
		func(sp Span) (Iterator, error) {
			var fail bool
			once.Do(func() { fail = true })
			if fail {
				return nil, fmt.Errorf("injected span failure")
			}
			return MergeRunsRange(sources, sp), nil
		}, Parallel{})
	if err == nil {
		t.Fatal("expected an error from the failing span")
	}
	if _, err := Open(parDir, 1, params); err == nil {
		t.Fatal("run files survived an aborted partitioned build")
	}
}

// failingIterator yields its entries until limit, then stops with err
// (a source whose read failed mid-stream).
type failingIterator struct {
	inner Iterator
	limit int
	n     int
	err   error
}

func (f *failingIterator) Next() (types.Entry, bool) {
	if f.n >= f.limit {
		return types.Entry{}, false
	}
	f.n++
	return f.inner.Next()
}

func (f *failingIterator) Err() error {
	if f.n >= f.limit {
		return f.err
	}
	return nil
}

// TestBuildSurfacesSourceError: a source that dies mid-stream must fail
// the build with its own error, not a generic short-count error — for
// the sequential builder and for a failing span of a partitioned one.
func TestBuildSurfacesSourceError(t *testing.T) {
	sentinel := errors.New("injected read failure")
	entries := genEntries(13, 400, 4)
	count := int64(len(entries))
	params := Params{Fanout: 4}

	_, err := Build(t.TempDir(), 1, count, params,
		&failingIterator{inner: NewSliceIterator(entries), limit: len(entries) / 2, err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Build: got %v, want the source's error", err)
	}

	sources := buildSources(t, t.TempDir(), entries, 2, params)
	spans, err := PlanRuns(sources, 4, params.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) < 2 {
		t.Fatal("input too small to partition")
	}
	last := spans[len(spans)-1]
	_, err = BuildPartitioned(t.TempDir(), 1, count, params, spans,
		func(sp Span) (Iterator, error) {
			it := Iterator(MergeRunsRange(sources, sp))
			if sp.Lo == last.Lo {
				it = &failingIterator{inner: it, limit: int(sp.Hi-sp.Lo) / 2, err: sentinel}
			}
			return it, nil
		}, Parallel{})
	if !errors.Is(err, sentinel) {
		t.Fatalf("BuildPartitioned: got %v, want the source's error", err)
	}
}
