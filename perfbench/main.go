// Command perfbench is the repository's benchmark. It drives one seeded
// workload through the public cole.DB interface, checks every answer
// against an oracle, and prints its metrics, the last line being one
// JSON object. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it repeats the workload with spans around every call into
// cole and the engine tracer on, and reports per-layer metrics.
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare <results-A> <results-B>
//
// README.md explains the workloads and what each metric should move.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cole"
	"cole/internal/obs"
	"cole/internal/types"
)

// setupReps is how many times a --trace 0 run builds its store; setup_s
// is the median, and the last store is the one measured.
const setupReps = 3

// probeGets and probeProvs size the read probe of a traced run.
const probeGets, probeProvs = 2000, 200

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line a run prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the per-run result file: the output plus what the compare
// mode and a reader need to interpret it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	output
	// Detail holds the metrics under the names of the workload's own
	// operations (get_p50_us, prov_p99_us, ...) with sample counts.
	Detail map[string]metric `json:"detail"`
	// Hstate is the digest of the last committed block; with one seed it
	// must repeat exactly on ingest and prov.
	Hstate string   `json:"hstate"`
	Errors []string `json:"errors,omitempty"`
}

func main() {
	work := flag.String("work", ".bench_build", "directory for stores and results")
	workload := flag.String("workload", "", "workload name: ingest, read or prov")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured phase length; sets the number of measured blocks")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	out := flag.String("out", "", "results directory (default <work>/results)")
	benchFile := flag.String("bench", "BENCHMARK.json", "benchmark definition, for compare")
	flag.Parse()

	if args := flag.Args(); len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fatalf("usage: compare <results-A> <results-B>")
		}
		ok, err := compare(os.Stdout, *benchFile, args[1], args[2])
		if err != nil {
			fatalf("compare: %v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need --workload ingest|read|prov, --seconds ≥ 1 and --trace 0|1")
	}
	if *out == "" {
		*out = filepath.Join(*work, "results")
	}
	stores := filepath.Join(*work, "stores", fmt.Sprint(os.Getpid()))
	e := newEnv(sp, *seed, *seconds, stores, openStore)
	name := fmt.Sprintf("%s-seed%d-trace%d-%d", sp.name, *seed, *trace, time.Now().UnixNano())
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	var rec *record
	var err error
	if *trace == 0 {
		rec, err = runPlain(e)
	} else {
		rec, err = runTraced(e, filepath.Join(*out, name+".spans.jsonl"))
	}
	_ = os.RemoveAll(stores)
	if err != nil {
		fatalf("%s: %v", sp.name, err)
	}
	rec.Workload, rec.Seed, rec.Seconds, rec.Trace = sp.name, *seed, *seconds, *trace
	if err := save(filepath.Join(*out, name+".json"), rec); err != nil {
		fatalf("save result: %v", err)
	}
	report(rec)
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// endToEnd lists the --trace 0 metrics; every workload reports each.
// "op" is the call the workload exists to time: PutBatch on ingest, Get
// on read, Prov on prov.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"commit_tps", "writes/s"},
	{"commit_p50_ms", "ms"},
	{"ops_s", "ops/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"disk_bytes_per_write", "B"},
	{"peak_rss_mb", "MiB"},
}

// runPlain is the --trace 0 run: set up setupReps times, measure the
// last store, close it and report.
func runPlain(e *env) (*record, error) {
	var setups []float64
	var s *store
	var setupRoot cole.Hash
	rec := &record{Detail: map[string]metric{}}
	for i := 0; i < setupReps; i++ {
		st, took, err := e.openAndLoad(fmt.Sprintf("setup-%d", i), nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i > 0 && st.root != setupRoot {
			rec.Errors = append(rec.Errors, "set-up digest differs between repeats")
		}
		setupRoot = st.root
		if i < setupReps-1 {
			_ = st.db.Close()
			_ = os.RemoveAll(st.dir)
			continue
		}
		s = st
	}
	r := e.measure(s, nil)
	_, disk, err := s.close()
	if err != nil {
		return nil, err
	}
	rec.finish(r)

	m := map[string]metric{
		"setup_s":              {median(setups), "s"},
		"commit_tps":           {float64(r.writes) / r.wall.Seconds(), "writes/s"},
		"commit_p50_ms":        {r.commits.pct(0.5) / 1e6, "ms"},
		"ops_s":                {float64(len(r.ops)) / r.wall.Seconds(), "ops/s"},
		"op_p50_us":            {r.ops.pct(0.5) / 1e3, "us"},
		"op_p90_us":            {r.ops.pct(0.9) / 1e3, "us"},
		"disk_bytes_per_write": {float64(disk) / float64(s.writes), "B"},
		"peak_rss_mb":          {peakRSSMiB(), "MiB"},
	}
	rec.Metrics = m
	rec.Hstate = hex.EncodeToString(s.root[:])

	// The op metrics again under the name of the workload's operation,
	// with the sample counts and the tail percentiles that leave at
	// least ten samples beyond them.
	d := rec.Detail
	op := map[string]string{"ingest": "put_batch", "read": "get", "prov": "prov"}[e.name]
	d[op+"_ops_s"] = m["ops_s"]
	d[op+"_p50_us"] = m["op_p50_us"]
	d["commit_samples"] = metric{float64(len(r.commits)), "count"}
	d[op+"_samples"] = metric{float64(len(r.ops)), "count"}
	for _, q := range []float64{0.90, 0.95, 0.97, 0.98, 0.99} {
		if float64(len(r.commits))*(1-q) >= 10 {
			d[fmt.Sprintf("commit_p%g_ms", q*100)] = metric{r.commits.pct(q) / 1e6, "ms"}
		}
		if float64(len(r.ops))*(1-q) >= 10 {
			d[fmt.Sprintf("%s_p%g_us", op, q*100)] = metric{r.ops.pct(q) / 1e3, "us"}
		}
	}
	if r.proofs > 0 {
		d["verify_p50_us"] = metric{r.verifies.pct(0.5) / 1e3, "us"}
		d["proof_bytes"] = metric{float64(r.proofBytes) / float64(r.proofs), "B"}
	}
	return rec, nil
}

// finish copies the phase's correctness outcome into the record.
func (rec *record) finish(r *result) {
	rec.Attempted += r.attempted
	rec.Failed += r.failed
	rec.Errors = append(rec.Errors, r.errs...)
	rec.Correct = rec.Failed == 0 && len(rec.Errors) == 0
	if rec.Attempted > 0 {
		rec.Detail["failed_frac"] = metric{float64(rec.Failed) / float64(rec.Attempted), "ratio"}
	}
}

// perLayer lists the --trace 1 metrics, prefixed by the layer (package)
// they belong to; README.md says which end-to-end metric each should
// move.
var perLayer = []struct{ name, unit string }{
	{"cole.put_batch_p50_us", "us"},
	{"cole.commit_call_p50_ms", "ms"},
	{"core.commit_p50_ms", "ms"},
	{"core.commit_p99_ms", "ms"},
	{"core.commit_self_p50_ms", "ms"},
	{"core.put_batch_p50_us", "us"},
	{"core.flush_p50_ms", "ms"},
	{"core.merge_max_ms", "ms"},
	{"core.manifest_p50_ms", "ms"},
	{"core.flushes", "count"},
	{"core.merges", "count"},
	{"core.write_amp", "ratio"},
	{"core.merge_busy_s", "s"},
	{"merge.merge_waits", "count"},
	{"merge.partition_waits", "count"},
	{"merge.preemptions", "count"},
	{"core.get_p50_us", "us"},
	{"core.prov_p50_us", "us"},
	{"pagefile.page_reads_per_get", "pages"},
	{"pagefile.cache_hit_ratio", "ratio"},
	{"bloom.skips_per_get", "runs"},
	{"pagefile.page_reads_per_prov", "pages"},
	{"pagefile.seq_reads", "count"},
	{"core.levels", "count"},
	{"core.runs", "count"},
	{"run.data_bytes_per_entry", "B"},
	{"run.index_bytes_per_entry", "B"},
	{"vfs.untracked_bytes", "B"},
	{"prov.runs_searched_per_query", "runs"},
	{"prov.bloom_miss_parts_per_query", "runs"},
	{"prov.unsearched_per_query", "digests"},
	{"prov.versions_per_query", "versions"},
	{"prov.verify_p50_us", "us"},
	{"prov.proof_bytes", "B"},
	{"bloom.digest_us", "us"},
	{"bloom.may_contain_ns", "ns"},
	{"mbtree.insert_ns", "ns"},
	{"mbtree.root_hash_us", "us"},
	{"run.build_ns_per_entry", "ns"},
	{"run.get_us", "us"},
	{"run.prov_search_us", "us"},
	{"run.verify_prov_us", "us"},
	{"go.alloc_bytes_per_write", "B"},
	{"go.allocs_per_get", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"harness.writer_late_p99_ms", "ms"},
	{"harness.trace_overhead_ratio", "ratio"},
}

// runTraced is the --trace 1 run. It measures the workload once untraced
// (the reference for the tracing overhead), then again on a fresh store
// with the engine tracer on and a span around every call, and finally
// times the layer ladder. The spans go to tracePath as JSON lines.
func runTraced(e *env, tracePath string) (*record, error) {
	rec := &record{Detail: map[string]metric{}}
	ref, _, err := e.openAndLoad("untraced", nil, nil)
	if err != nil {
		return nil, err
	}
	rRef := e.measure(ref, nil)
	if _, _, err := ref.close(); err != nil {
		return nil, err
	}
	_ = os.RemoveAll(ref.dir)
	rec.finish(rRef)

	base := time.Now()
	tr, off := newTracer(base)
	spans := &spanLog{base: base}
	s, _, err := e.openAndLoad("traced", tr, spans)
	if err != nil {
		return nil, err
	}
	r := e.measure(s, spans)
	rec.finish(r)
	// Read-path metrics need reads: a workload without Gets or Prov
	// calls of its own gets them from a probe on the same store.
	getSrc, provSrc := r, r
	if r.end.Gets == r.base.Gets {
		getSrc = e.probe(s, probeGets, 0)
		rec.finish(getSrc)
	}
	if r.end.ProvQueries == r.base.ProvQueries {
		provSrc = e.probe(s, 0, probeProvs)
		rec.finish(provSrc)
	}
	sb, disk, err := s.close()
	if err != nil {
		return nil, err
	}
	// The store is closed, so every background job has ended and its
	// events are in the ring.
	rec.Errors = append(rec.Errors, crossCheck(tr, s.db.Stats())...)
	rec.Correct = rec.Correct && len(rec.Errors) == 0
	rec.Hstate = hex.EncodeToString(s.root[:])

	from, to := int64(r.t0.Sub(base)), int64(r.t1.Sub(base))
	es := engineSpans(tr, off, spans)
	d := statsDelta(r.base, r.end)
	h := r.end.Hist.Delta(r.base.Hist)
	gd, gh := statsDelta(getSrc.base, getSrc.end), getSrc.end.Hist.Delta(getSrc.base.Hist)
	pd, ph := statsDelta(provSrc.base, provSrc.end), provSrc.end.Hist.Delta(provSrc.base.Hist)
	for k, v := range d {
		rec.Detail["stats."+k] = metric{float64(v), "stat"}
	}
	m := map[string]float64{}
	ms, us := float64(time.Millisecond), float64(time.Microsecond)
	hp := func(hi interface{ Percentile(float64) time.Duration }, p float64, unit float64) float64 {
		return float64(hi.Percentile(p)) / unit
	}
	m["cole.put_batch_p50_us"] = spans.durations(spanPutBatch, from, to).pct(0.5) / us
	m["cole.commit_call_p50_ms"] = spans.durations(spanCommit, from, to).pct(0.5) / ms
	m["core.commit_p50_ms"] = hp(&h.Commit, 0.5, ms)
	m["core.commit_p99_ms"] = hp(&h.Commit, 0.99, ms)
	m["core.commit_self_p50_ms"] = commitSelf(es, from, to).pct(0.5) / ms
	m["core.put_batch_p50_us"] = hp(&h.PutBatch, 0.5, us)
	m["core.flush_p50_ms"] = eventDurations(es, obs.EvFlushEnd, from, to).pct(0.5) / ms
	m["core.merge_max_ms"] = eventDurations(es, obs.EvMergeEnd, from, to).pct(1) / ms
	m["core.manifest_p50_ms"] = eventDurations(es, obs.EvManifest, from, to).pct(0.5) / ms
	m["core.flushes"] = float64(d["Flushes"])
	m["core.merges"] = float64(d["Merges"])
	m["core.write_amp"] = ratio(float64(d["FlushBytes"]+d["MergeBytes"]), float64(r.writes*types.EntrySize))
	m["core.merge_busy_s"] = float64(d["MergeNanos"]) / 1e9
	m["merge.merge_waits"] = float64(d["MergeWaits"])
	m["merge.partition_waits"] = float64(d["PartitionWaits"])
	m["merge.preemptions"] = float64(d["Preemptions"])
	m["core.get_p50_us"] = hp(&gh.Get, 0.5, us)
	m["core.prov_p50_us"] = hp(&ph.Prov, 0.5, us)
	m["pagefile.page_reads_per_get"] = ratio(float64(gd["PageReads"]), float64(gd["Gets"]))
	m["pagefile.cache_hit_ratio"] = ratio(float64(gd["CacheHits"]), float64(gd["CacheHits"]+gd["PageReads"]))
	m["bloom.skips_per_get"] = ratio(float64(gd["BloomSkips"]), float64(gd["Gets"]))
	m["pagefile.page_reads_per_prov"] = ratio(float64(pd["PageReads"]), float64(pd["ProvQueries"]))
	m["pagefile.seq_reads"] = float64(d["SeqReads"])
	m["core.levels"] = float64(sb.Levels)
	m["core.runs"] = float64(sb.Runs)
	m["run.data_bytes_per_entry"] = ratio(float64(sb.DataBytes), float64(sb.Entries))
	m["run.index_bytes_per_entry"] = ratio(float64(sb.IndexBytes), float64(sb.Entries))
	m["vfs.untracked_bytes"] = float64(disk - sb.DataBytes - sb.IndexBytes)
	q, pp := float64(provSrc.proofs), provSrc.provParts
	m["prov.runs_searched_per_query"] = ratio(float64(pp.searched), q)
	m["prov.bloom_miss_parts_per_query"] = ratio(float64(pp.bloomMiss), q)
	m["prov.unsearched_per_query"] = ratio(float64(pp.unsearched), q)
	m["prov.versions_per_query"] = ratio(float64(pp.versions), q)
	m["prov.verify_p50_us"] = provSrc.verifies.pct(0.5) / us
	m["prov.proof_bytes"] = ratio(float64(provSrc.proofBytes), q)
	m["go.alloc_bytes_per_write"] = ratio(float64(r.g1.allocBytes-r.g0.allocBytes), float64(r.writes))
	m["go.allocs_per_get"] = ratio(float64(getSrc.g1.allocObjects-getSrc.g0.allocObjects), float64(gd["Gets"]))
	m["go.gc_cpu_frac"] = ratio(r.g1.gcCPU-r.g0.gcCPU, r.g1.totalCPU-r.g0.totalCPU)
	m["harness.writer_late_p99_ms"] = r.late.pct(0.99) / ms
	m["harness.trace_overhead_ratio"] = ratio(r.ops.pct(0.5), rRef.ops.pct(0.5))

	largest := int64(0)
	for _, ev := range es {
		if ev.ev.Type == obs.EvFlushEnd || ev.ev.Type == obs.EvMergeEnd {
			if n := ev.ev.Bytes / types.EntrySize; n > largest {
				largest = n
			}
		}
	}
	lad, err := ladder(filepath.Join(e.workDir, "ladder"), e.seed, int(largest), 4096)
	if err != nil {
		return nil, err
	}
	for k, v := range lad {
		m[k] = v
	}
	rec.Metrics = map[string]metric{}
	for _, pl := range perLayer {
		rec.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	rec.Detail["ladder_run_entries"] = metric{float64(largest), "count"}
	if err := writeTrace(tracePath, spans, es); err != nil {
		return nil, err
	}
	return rec, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// save writes the record as indented JSON.
func save(path string, rec *record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints every metric by name and unit, then the result line.
func report(rec *record) {
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	list := endToEnd
	if rec.Trace == 1 {
		list = perLayer
	}
	for _, x := range list {
		fmt.Printf("  %-34s %14.6g %s\n", x.name, rec.Metrics[x.name].Value, x.unit)
	}
	var names []string
	for k := range rec.Detail {
		if _, dup := rec.Metrics[k]; !dup {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, rec.Detail[k].Value, rec.Detail[k].Unit)
	}
	fmt.Printf("  hstate %s\n", rec.Hstate)
	for _, e := range rec.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	b, err := json.Marshal(rec.output)
	if err != nil {
		fatalf("result line: %v", err)
	}
	fmt.Println(string(b))
}
