package main

import (
	"encoding/binary"
	"fmt"
	"sort"

	"cole"
)

// Every value the benchmark writes names the write that produced it:
// key index, block height and position in the block, plus the seed.
// A value read back therefore identifies exactly which version the store
// served, and the oracle can judge it without storing values.
func valueOf(seed int64, key uint32, blk uint64, seq uint32) cole.Value {
	var v cole.Value
	binary.BigEndian.PutUint32(v[0:4], key)
	binary.BigEndian.PutUint64(v[4:12], blk)
	binary.BigEndian.PutUint32(v[12:16], seq)
	binary.BigEndian.PutUint64(v[16:24], uint64(seed))
	return v
}

// blockOf returns the block height a value claims to have been written at.
func blockOf(v cole.Value) uint64 { return binary.BigEndian.Uint64(v[4:12]) }

// version packs one committed version of a key: its block height and
// the position, within the block, of the write that won (a block that
// writes a key twice keeps the last write).
type version uint64

func pack(blk uint64, seq uint32) version              { return version(blk<<24 | uint64(seq)) }
func (v version) blk() uint64                          { return uint64(v) >> 24 }
func (v version) seq() uint32                          { return uint32(v & (1<<24 - 1)) }
func (o *oracle) value(k uint32, v version) cole.Value { return valueOf(o.seed, k, v.blk(), v.seq()) }

// oracle is the shadow of every committed version, per key, in commit
// order. A caller that reads it while another goroutine applies blocks
// must order the two with a lock.
type oracle struct {
	seed int64
	vers [][]version
}

func newOracle(seed int64, keys int) *oracle {
	return &oracle{seed: seed, vers: make([][]version, keys)}
}

// apply records a committed block. ups are the block's writes in order,
// as key indexes.
func (o *oracle) apply(blk uint64, ups []uint32) {
	for seq, k := range ups {
		vs := o.vers[k]
		if n := len(vs); n > 0 && vs[n-1].blk() == blk {
			vs[n-1] = pack(blk, uint32(seq))
		} else {
			o.vers[k] = append(vs, pack(blk, uint32(seq)))
		}
	}
}

// newestAt returns the newest version of k with height ≤ h.
func (o *oracle) newestAt(k uint32, h uint64) (version, bool) {
	vs := o.vers[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].blk() > h })
	if i == 0 {
		return 0, false
	}
	return vs[i-1], true
}

// find returns the version of k committed at exactly blk.
func (o *oracle) find(k uint32, blk uint64) (version, bool) {
	vs := o.vers[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].blk() >= blk })
	if i < len(vs) && vs[i].blk() == blk {
		return vs[i], true
	}
	return 0, false
}

// getRecord is one point read: the key asked for, the height committed
// when the call began, and what came back.
type getRecord struct {
	key   uint32
	start uint32
	found bool
	err   bool
	val   cole.Value
}

// checkGet judges one read: the store must return the newest version
// committed before the call began, or a newer committed one.
func (o *oracle) checkGet(r getRecord) error {
	if r.err {
		return fmt.Errorf("get key %d: call failed", r.key)
	}
	want, had := o.newestAt(r.key, uint64(r.start))
	if !r.found {
		if had {
			return fmt.Errorf("get key %d: not found, but version at block %d was committed before the call", r.key, want.blk())
		}
		return nil
	}
	blk := blockOf(r.val)
	got, ok := o.find(r.key, blk)
	switch {
	case !ok || r.val != o.value(r.key, got):
		return fmt.Errorf("get key %d: value %x was never committed to it", r.key, r.val[:16])
	case had && blk < want.blk():
		return fmt.Errorf("get key %d: stale version %d, %d was committed before the call", r.key, blk, want.blk())
	}
	return nil
}

// expectProv lists the versions of k in [lo, hi], newest first — what
// Prov and ProvProof.Verify must both return.
func (o *oracle) expectProv(k uint32, lo, hi uint64) []cole.Version {
	vs := o.vers[k]
	var out []cole.Version
	for i := len(vs) - 1; i >= 0; i-- {
		b := vs[i].blk()
		if b < lo {
			break
		}
		if b <= hi {
			out = append(out, cole.Version{Blk: b, Value: o.value(k, vs[i])})
		}
	}
	return out
}

func sameVersions(a, b []cole.Version) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
