package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"cole/internal/bloom"
	"cole/internal/mbtree"
	"cole/internal/run"
	"cole/internal/types"
)

// ladderReps is how many times each ladder step is timed; the median is
// reported.
const ladderReps = 5

// ladder times direct calls into the layer packages at the sizes the
// traced run reported: runEntries is the largest run the engine built,
// memEntries the L0 group size. The keys carry versionsPerKey versions
// each, so provenance searches return several entries.
func ladder(dir string, seed int64, runEntries, memEntries int) (map[string]float64, error) {
	const versionsPerKey = 16
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(seed))
	nKeys := runEntries / versionsPerKey
	if nKeys < 1 {
		nKeys = 1
	}
	addrs := make([]types.Address, nKeys)
	for i := range addrs {
		addrs[i] = types.AddressFromString(fmt.Sprintf("ladder-%d", i))
	}
	sort.Slice(addrs, func(i, j int) bool { return string(addrs[i][:]) < string(addrs[j][:]) })
	entries := make([]types.Entry, 0, nKeys*versionsPerKey)
	for i, a := range addrs {
		for v := 0; v < versionsPerKey; v++ {
			blk := uint64(v*10 + 1)
			entries = append(entries, types.Entry{
				Key:   types.CompoundKey{Addr: a, Blk: blk},
				Value: valueOf(seed, uint32(i), blk, 0),
			})
		}
	}
	out := map[string]float64{}
	med := func(f func() time.Duration) float64 {
		var xs []float64
		for i := 0; i < ladderReps; i++ {
			xs = append(xs, float64(f()))
		}
		return median(xs)
	}

	// Bloom: digest of a filter the size of the largest run, and probes.
	f := bloom.New(len(entries), 0.01)
	for _, a := range addrs {
		f.Add(a)
		for v := 1; v < versionsPerKey; v++ {
			f.AddRepeat()
		}
	}
	out["bloom.digest_us"] = med(func() time.Duration {
		t := time.Now()
		f.Digest()
		return time.Since(t)
	}) / 1e3
	probes := make([]types.Address, 100_000)
	for i := range probes {
		probes[i] = types.AddressFromString(fmt.Sprintf("probe-%d", rng.Int63()))
	}
	out["bloom.may_contain_ns"] = med(func() time.Duration {
		t := time.Now()
		for _, a := range probes {
			f.MayContain(a)
		}
		return time.Since(t)
	}) / float64(len(probes))

	// MB-tree: build one L0 group, then hash it from scratch.
	mem := make([]types.Entry, memEntries)
	for i := range mem {
		mem[i] = types.Entry{Key: types.CompoundKey{Addr: probes[i%len(probes)], Blk: uint64(i)}}
	}
	out["mbtree.insert_ns"] = med(func() time.Duration {
		tree, _ := mbtree.New(mbtree.DefaultFanout)
		t := time.Now()
		for _, e := range mem {
			tree.Insert(e.Key, e.Value)
		}
		return time.Since(t)
	}) / float64(memEntries)
	out["mbtree.root_hash_us"] = med(func() time.Duration {
		tr, _ := mbtree.New(mbtree.DefaultFanout)
		for _, e := range mem {
			tr.Insert(e.Key, e.Value)
		}
		t := time.Now()
		tr.RootHash()
		return time.Since(t)
	}) / 1e3

	// Run: build the largest run once per rep, then search the last one.
	var r *run.Run
	params := run.Params{Fanout: 4}
	var buildErr error
	out["run.build_ns_per_entry"] = med(func() time.Duration {
		if buildErr != nil {
			return 0
		}
		if r != nil {
			_ = r.Remove()
		}
		t := time.Now()
		r, buildErr = run.Build(dir, 1, int64(len(entries)), params, run.NewSliceIterator(entries))
		return time.Since(t)
	}) / float64(len(entries))
	if buildErr != nil {
		return nil, fmt.Errorf("ladder run build: %w", buildErr)
	}
	defer r.Close()

	const lookups = 2000
	var searchErr error
	out["run.get_us"] = med(func() time.Duration {
		t := time.Now()
		for i := 0; i < lookups; i++ {
			if _, _, found, _, err := r.Get(addrs[rng.Intn(len(addrs))]); err != nil || !found {
				searchErr = fmt.Errorf("ladder run get: found=%v err=%v", found, err)
			}
		}
		return time.Since(t)
	}) / lookups / 1e3
	lo, hi := uint64(40), uint64(120)
	var results []*run.ProvResult
	var keys []types.Address
	out["run.prov_search_us"] = med(func() time.Duration {
		results, keys = results[:0], keys[:0]
		t := time.Now()
		for i := 0; i < lookups; i++ {
			a := addrs[rng.Intn(len(addrs))]
			res, err := r.ProvSearch(a, lo, hi)
			if err != nil {
				searchErr = fmt.Errorf("ladder prov search: %w", err)
				continue
			}
			results, keys = append(results, res), append(keys, a)
		}
		return time.Since(t)
	}) / lookups / 1e3
	out["run.verify_prov_us"] = med(func() time.Duration {
		t := time.Now()
		for i, res := range results {
			if _, err := run.VerifyProv(r.MHTRoot(), keys[i], lo, hi, res); err != nil {
				searchErr = fmt.Errorf("ladder verify prov: %w", err)
			}
		}
		return time.Since(t)
	}) / float64(len(results)) / 1e3
	return out, searchErr
}
