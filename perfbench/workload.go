package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cole"
)

// spec is one workload's shape. Every measured phase is a fixed number
// of blocks derived from --seconds, so runs with the same arguments do
// identical write work whatever the host's speed.
type spec struct {
	name   string
	async  bool // COLE* (Options.AsyncMerge)
	shards int

	population  int // distinct keys writes and reads draw from, uniformly
	setupBlocks int // blocks of history loaded before the first measured op
	setupWrites int // writes per set-up block

	blockWrites int // writes per measured block
	// blocksPerSec is the measured blocks per second of --seconds. For a
	// paced writer it is also the rate at which blocks fall due.
	blocksPerSec int
	paced        bool // an open-loop writer beside a closed-loop reader
	provQueries  int  // Prov queries after each measured block
}

// The three workloads. Options are the engine defaults apart from
// AsyncMerge and Shards; the comments give what each one isolates.
var specs = []spec{
	// The whole commit path on a store large enough (4 levels) that
	// store-size-dependent commit cost dominates. No reads.
	{name: "ingest", shards: 1, population: 500_000, setupBlocks: 500, setupWrites: 1000,
		blockWrites: 100, blocksPerSec: 300},
	// Point reads on a store far larger than the page cache, beside a
	// light paced writer, background merges and two shards.
	{name: "read", async: true, shards: 2, population: 500_000, setupBlocks: 500, setupWrites: 1000,
		blockWrites: 100, blocksPerSec: 20, paced: true},
	// Provenance queries over the last 100 blocks of 100 hot keys, each
	// verified by the client; the working set fits the page cache.
	{name: "prov", shards: 1, population: 100, setupBlocks: 3000, setupWrites: 100,
		blockWrites: 100, blocksPerSec: 150, provQueries: 10},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// opener opens a store for a workload; tests substitute one that wraps
// the real store.
type opener func(opts cole.Options) (cole.DB, error)

func openStore(opts cole.Options) (cole.DB, error) {
	if opts.Shards > 1 {
		return cole.OpenSharded(opts)
	}
	return cole.Open(opts)
}

// env is everything one phase needs besides the store.
type env struct {
	spec
	seed   int64
	blocks int // measured blocks
	keys   []cole.Address
	setup  [][]uint32 // set-up blocks, as key indexes
	// setupUps are the same blocks as updates, built once so that
	// repeated set-ups time only the store.
	setupUps [][]cole.Update
	open     opener
	workDir  string
}

func newEnv(sp spec, seed int64, seconds int, workDir string, open opener) *env {
	e := &env{spec: sp, seed: seed, blocks: sp.blocksPerSec * seconds, open: open, workDir: workDir}
	e.keys = make([]cole.Address, sp.population)
	for i := range e.keys {
		e.keys[i] = cole.AddressFromString(fmt.Sprintf("key-%d", i))
	}
	rng := rand.New(rand.NewSource(seed))
	e.setup = make([][]uint32, sp.setupBlocks)
	e.setupUps = make([][]cole.Update, sp.setupBlocks)
	for b := range e.setup {
		e.setup[b] = drawKeys(rng, sp.population, sp.setupWrites)
		e.setupUps[b] = e.updates(uint64(b+1), e.setup[b])
	}
	return e
}

func drawKeys(rng *rand.Rand, population, n int) []uint32 {
	ks := make([]uint32, n)
	for i := range ks {
		ks[i] = uint32(rng.Intn(population))
	}
	return ks
}

func (e *env) updates(blk uint64, ks []uint32) []cole.Update {
	ups := make([]cole.Update, len(ks))
	for i, k := range ks {
		ups[i] = cole.Update{Addr: e.keys[k], Value: valueOf(e.seed, k, blk, uint32(i))}
	}
	return ups
}

func (e *env) options(dir string, tr *cole.Tracer) cole.Options {
	return cole.Options{Dir: dir, AsyncMerge: e.async, Shards: e.shards, Trace: tr}
}

// store is one opened, loaded store and the oracle of what it holds.
type store struct {
	db     cole.DB
	dir    string
	oracle *oracle
	height uint64
	root   cole.Hash // digest returned by the last Commit
	writes int64     // user writes committed, set-up included
}

// openAndLoad opens a fresh store and commits the set-up history. The
// returned duration is the set-up time: open plus load.
func (e *env) openAndLoad(name string, tr *cole.Tracer, sp *spanLog) (*store, time.Duration, error) {
	dir := filepath.Join(e.workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	db, err := e.open(e.options(dir, tr))
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	s := &store{db: db, dir: dir, oracle: newOracle(e.seed, len(e.keys))}
	for b, ups := range e.setupUps {
		if _, err := s.commit(uint64(b+1), ups, sp); err != nil {
			_ = db.Close()
			return nil, 0, fmt.Errorf("set-up block %d: %w", b+1, err)
		}
	}
	took := time.Since(start)
	for b, ks := range e.setup {
		s.oracle.apply(uint64(b+1), ks)
	}
	return s, took, nil
}

// commit runs BeginBlock → PutBatch → Commit, each inside a span when
// tracing, and returns how long PutBatch took.
func (s *store) commit(h uint64, ups []cole.Update, sp *spanLog) (time.Duration, error) {
	t0 := time.Now()
	if err := s.db.BeginBlock(h); err != nil {
		return 0, err
	}
	t1 := time.Now()
	if err := s.db.PutBatch(ups); err != nil {
		return 0, err
	}
	t2 := time.Now()
	root, err := s.db.Commit()
	if err != nil {
		return 0, err
	}
	sp.add(spanBegin, t0, t1)
	sp.add(spanPutBatch, t1, t2)
	sp.add(spanCommit, t2, time.Now())
	s.height, s.root = h, root
	s.writes += int64(len(ups))
	return t2.Sub(t1), nil
}

// result is what one measured phase observed.
type result struct {
	t0, t1   time.Time // the measured phase
	wall     time.Duration
	writes   int64
	commits  samples // per block, from the call (or due time when paced)
	ops      samples // per workload op: PutBatch, Get or Prov
	verifies samples
	// late is how late the writer started each block: after its due
	// time when paced, else after the previous op ended (the harness's
	// own time between blocks).
	late       samples
	proofBytes int64
	proofs     int64
	provParts  provShape
	attempted  int64
	failed     int64
	errs       []string
	base, end  cole.Stats
	g0, g1     goRuntime
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// provShape sums the parts of the returned proofs.
type provShape struct {
	searched, bloomMiss, unsearched, versions int64
}

// measure runs the workload's measured phase on a loaded store.
func (e *env) measure(s *store, sp *spanLog) *result {
	r := &result{base: s.db.Stats(), g0: readGoRuntime()}
	if e.paced {
		e.measurePaced(s, sp, r)
	} else {
		e.measureClosed(s, sp, r)
	}
	r.g1 = readGoRuntime()
	r.end = s.db.Stats()
	e.finalCheck(s, r)
	if d := s.db.Stats().CorruptReads - r.base.CorruptReads; d > 0 {
		r.failed += d
		r.errs = append(r.errs, fmt.Sprintf("%d corrupt reads", d))
	}
	return r
}

// measureClosed is one client: commit a block, then (on prov) query it.
func (e *env) measureClosed(s *store, sp *spanLog, r *result) {
	rng := rand.New(rand.NewSource(e.seed + 1))
	r.t0 = time.Now()
	last := r.t0
	for b := 0; b < e.blocks; b++ {
		h := s.height + 1
		ks := drawKeys(rng, e.population, e.blockWrites)
		ups := e.updates(h, ks)
		t := time.Now()
		r.late.add(t.Sub(last))
		r.attempted++
		put, err := s.commit(h, ups, sp)
		if err != nil {
			r.fail("block %d: %v", h, err)
			break
		}
		r.commits.add(time.Since(t))
		r.writes += int64(len(ups))
		s.oracle.apply(h, ks)
		if e.provQueries == 0 {
			r.ops.add(put)
		}
		for q := 0; q < e.provQueries; q++ {
			e.prov(s, uint32(rng.Intn(e.population)), sp, r)
		}
		last = time.Now()
	}
	r.t1 = time.Now()
	r.wall = r.t1.Sub(r.t0)
}

// provSpan is how many of the latest blocks a Prov call covers, as in
// the paper's provenance experiment (§8.2.5).
const provSpan = 100

// prov runs one provenance query over the last provSpan blocks and
// verifies the proof against the digest the tip block's Commit returned.
func (e *env) prov(s *store, k uint32, sp *spanLog, r *result) {
	hi := s.height
	lo := uint64(1)
	if hi >= provSpan {
		lo = hi - provSpan + 1
	}
	r.attempted++
	t0 := time.Now()
	vers, proof, err := s.db.Prov(e.keys[k], lo, hi)
	t1 := time.Now()
	if err != nil || proof == nil {
		r.fail("prov key %d: no proof: %v", k, err)
		return
	}
	got, err := proof.Verify(s.root, e.keys[k], lo, hi)
	t2 := time.Now()
	sp.add(spanProv, t0, t1)
	sp.add(spanVerify, t1, t2)
	r.ops.add(t1.Sub(t0))
	r.verifies.add(t2.Sub(t1))
	r.proofBytes += int64(proof.Size())
	r.proofs++
	r.provParts.add(proof, len(vers))
	want := s.oracle.expectProv(k, lo, hi)
	switch {
	case err != nil:
		r.fail("verify key %d [%d,%d]: %v", k, lo, hi, err)
	case !sameVersions(vers, want):
		r.fail("prov key %d [%d,%d]: %d versions, oracle has %d", k, lo, hi, len(vers), len(want))
	case !sameVersions(got, want):
		r.fail("verified key %d [%d,%d]: %d versions, oracle has %d", k, lo, hi, len(got), len(want))
	}
}

func (p *provShape) add(proof cole.ProvProof, versions int) {
	var inner *cole.Proof
	switch pp := proof.(type) {
	case *cole.Proof:
		inner = pp
	case *cole.ShardProof:
		inner = pp.Inner
	}
	p.versions += int64(versions)
	if inner == nil {
		return
	}
	for _, rp := range inner.Runs {
		if rp.BloomMiss {
			p.bloomMiss++
		} else {
			p.searched++
		}
	}
	p.unsearched += int64(len(inner.Unsearched))
}

// measurePaced runs a writer whose blocks fall due at blocksPerSec, each
// timed from its due time, beside a closed-loop reader that issues Gets
// until the writer's last block has committed. Each Get is timed from
// the call and then judged against the oracle, which the writer updates
// under mu before each commit.
func (e *env) measurePaced(s *store, sp *spanLog, r *result) {
	var committed atomic.Uint64
	committed.Store(s.height)
	var done atomic.Bool
	var mu sync.RWMutex
	reads := &result{}
	getSpans := sp.child()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(e.seed + 2))
		for n := 1; !done.Load(); n++ {
			// Yield now and then: a goroutine that never reaches a
			// scheduling point holds its P until Go's 10 ms preemption,
			// and the paced writer's timer would fire that late.
			if n%64 == 0 {
				runtime.Gosched()
			}
			k := uint32(rng.Intn(e.population))
			st := committed.Load()
			t := time.Now()
			v, ok, err := s.db.Get(e.keys[k])
			t1 := time.Now()
			reads.ops.add(t1.Sub(t))
			getSpans.add(spanGet, t, t1)
			reads.attempted++
			mu.RLock()
			err = s.oracle.checkGet(getRecord{key: k, start: uint32(st), found: ok, err: err != nil, val: v})
			mu.RUnlock()
			if err != nil {
				reads.fail("%v", err)
			}
		}
	}()

	rng := rand.New(rand.NewSource(e.seed + 1))
	period := time.Second / time.Duration(e.blocksPerSec)
	r.t0 = time.Now()
	for b := 0; b < e.blocks; b++ {
		due := r.t0.Add(time.Duration(b) * period)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		r.late.add(time.Since(due))
		h := s.height + 1
		ks := drawKeys(rng, e.population, e.blockWrites)
		ups := e.updates(h, ks)
		// The block enters the oracle before Commit can publish it, so a
		// read that sees it finds it there; reads judged "committed before
		// the call" only look up to the height in committed.
		mu.Lock()
		s.oracle.apply(h, ks)
		mu.Unlock()
		r.attempted++
		if _, err := s.commit(h, ups, sp); err != nil {
			r.fail("block %d: %v", h, err)
			break
		}
		r.commits.add(time.Since(due))
		r.writes += int64(len(ups))
		committed.Store(h)
	}
	r.t1 = time.Now()
	r.wall = r.t1.Sub(r.t0)
	done.Store(true)
	wg.Wait()

	r.ops = reads.ops
	r.attempted += reads.attempted
	r.failed += reads.failed
	r.errs = append(r.errs, reads.errs...)
	sp.merge(getSpans)
}

// probe issues Gets, then verified Prov calls over the last provSpan
// blocks, on uniform keys once the measured phase is over. It gives the
// traced run read-path samples on a workload whose own phase performs
// none. Answers are judged like the phase's own.
func (e *env) probe(s *store, gets, provs int) *result {
	r := &result{base: s.db.Stats(), g0: readGoRuntime()}
	rng := rand.New(rand.NewSource(e.seed + 4))
	for i := 0; i < gets; i++ {
		k := uint32(rng.Intn(e.population))
		r.attempted++
		t := time.Now()
		v, ok, err := s.db.Get(e.keys[k])
		r.ops.add(time.Since(t))
		if err := s.oracle.checkGet(getRecord{key: k, start: uint32(s.height), found: ok, err: err != nil, val: v}); err != nil {
			r.fail("probe %v", err)
		}
	}
	for i := 0; i < provs; i++ {
		e.prov(s, uint32(rng.Intn(e.population)), nil, r)
	}
	r.g1 = readGoRuntime()
	r.end = s.db.Stats()
	return r
}

// finalCheck reads back a sample of keys after the phase, when nothing
// is in flight: each must hold exactly the oracle's newest version.
func (e *env) finalCheck(s *store, r *result) {
	rng := rand.New(rand.NewSource(e.seed + 3))
	n := 1000
	if n > e.population {
		n = e.population
	}
	for i := 0; i < n; i++ {
		k := uint32(rng.Intn(e.population))
		r.attempted++
		v, ok, err := s.db.Get(e.keys[k])
		// Nothing newer than the tip exists, so "the newest version
		// committed before the call, or a newer one" means exactly the
		// newest.
		if err := s.oracle.checkGet(getRecord{key: k, start: uint32(s.height), found: ok, err: err != nil, val: v}); err != nil {
			r.fail("final %v", err)
		}
	}
}

// close flushes and closes the store. It returns the footprint the store
// reported after the flush and the bytes its directory holds once closed.
func (s *store) close() (cole.StorageBreakdown, int64, error) {
	if err := s.db.FlushAll(); err != nil {
		_ = s.db.Close()
		return cole.StorageBreakdown{}, 0, fmt.Errorf("flush: %w", err)
	}
	sb := s.db.Storage()
	if err := s.db.Close(); err != nil {
		return sb, 0, fmt.Errorf("close: %w", err)
	}
	n, err := dirBytes(s.dir)
	return sb, n, err
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
