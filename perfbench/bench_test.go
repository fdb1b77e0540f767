package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cole"
)

// Small shapes of the three workloads, so a test runs in about a second.
var (
	tinyRead = spec{name: "read", async: true, shards: 2, population: 300, setupBlocks: 20, setupWrites: 50,
		blockWrites: 10, blocksPerSec: 40, paced: true}
	tinyProv = spec{name: "prov", shards: 1, population: 10, setupBlocks: 40, setupWrites: 20,
		blockWrites: 10, blocksPerSec: 15, provQueries: 3}
	tinyIngest = spec{name: "ingest", shards: 1, population: 500, setupBlocks: 20, setupWrites: 300,
		blockWrites: 100, blocksPerSec: 60}
)

func measureWith(t *testing.T, sp spec, open opener) *result {
	t.Helper()
	e := newEnv(sp, 7, 1, t.TempDir(), open)
	s, _, err := e.openAndLoad("store", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := e.measure(s, nil)
	if _, _, err := s.close(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCleanRunsHaveNoFailures(t *testing.T) {
	for _, sp := range []spec{tinyRead, tinyProv, tinyIngest} {
		r := measureWith(t, sp, openStore)
		if r.failed != 0 || r.attempted == 0 || len(r.ops) == 0 {
			t.Errorf("%s: attempted %d failed %d ops %d: %v", sp.name, r.attempted, r.failed, len(r.ops), r.errs)
		}
	}
}

// corruptGet flips one byte of the fifth value a Get returns.
type corruptGet struct {
	cole.DB
	n atomic.Int64
}

func (c *corruptGet) Get(a cole.Address) (cole.Value, bool, error) {
	v, ok, err := c.DB.Get(a)
	if ok && c.n.Add(1) == 5 {
		v[31] ^= 1
	}
	return v, ok, err
}

// corruptProof strips the L0 part from the third provenance proof, so
// the proof no longer reconstructs the digest.
type corruptProof struct {
	cole.DB
	n int
}

func (c *corruptProof) Prov(a cole.Address, lo, hi uint64) ([]cole.Version, cole.ProvProof, error) {
	vs, p, err := c.DB.Prov(a, lo, hi)
	if c.n++; c.n == 3 {
		if pp, ok := p.(*cole.Proof); ok {
			cp := *pp
			cp.Mem = nil
			p = &cp
		}
	}
	return vs, p, err
}

// dropVersion hides the newest version from the fourth Prov answer.
type dropVersion struct {
	cole.DB
	n int
}

func (d *dropVersion) Prov(a cole.Address, lo, hi uint64) ([]cole.Version, cole.ProvProof, error) {
	vs, p, err := d.DB.Prov(a, lo, hi)
	if d.n++; d.n == 4 && len(vs) > 0 {
		vs = vs[1:]
	}
	return vs, p, err
}

func TestOracleCatchesCorruption(t *testing.T) {
	wrap := func(w func(cole.DB) cole.DB) opener {
		return func(o cole.Options) (cole.DB, error) {
			db, err := openStore(o)
			if err != nil {
				return nil, err
			}
			return w(db), nil
		}
	}
	cases := []struct {
		name string
		sp   spec
		open opener
	}{
		{"value", tinyRead, wrap(func(db cole.DB) cole.DB { return &corruptGet{DB: db} })},
		{"proof", tinyProv, wrap(func(db cole.DB) cole.DB { return &corruptProof{DB: db} })},
		{"versions", tinyProv, wrap(func(db cole.DB) cole.DB { return &dropVersion{DB: db} })},
	}
	for _, c := range cases {
		r := measureWith(t, c.sp, c.open)
		if r.failed == 0 {
			t.Errorf("%s: corrupted answer went unnoticed (%d attempted)", c.name, r.attempted)
		}
	}
}

// slowGet sleeps a fixed time in every Get.
type slowGet struct{ cole.DB }

const getSleep = 3 * time.Millisecond

func (s slowGet) Get(a cole.Address) (cole.Value, bool, error) {
	time.Sleep(getSleep)
	return s.DB.Get(a)
}

// The read latency is timed from the call, so with a Get that takes a
// fixed time the median is that time, not that time plus a queue wait.
func TestGetLatencyIsTimedFromTheCall(t *testing.T) {
	r := measureWith(t, tinyRead, func(o cole.Options) (cole.DB, error) {
		db, err := openStore(o)
		return slowGet{db}, err
	})
	p50 := time.Duration(r.ops.pct(0.5))
	if len(r.ops) < 10 || p50 < getSleep || p50 > getSleep*3/2 {
		t.Fatalf("get p50 %v over %d gets; want about %v", p50, len(r.ops), getSleep)
	}
}

func TestStatsDeltaCoversEveryIntegerField(t *testing.T) {
	var base, now cole.Stats
	nv := reflect.ValueOf(&now).Elem()
	want := map[string]int64{}
	for i := 0; i < nv.NumField(); i++ {
		f := nv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(i + 1))
			want[nv.Type().Field(i).Name] = int64(i + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(i + 1))
			want[nv.Type().Field(i).Name] = int64(i + 1)
		}
	}
	if len(want) == 0 {
		t.Fatal("cole.Stats has no integer fields")
	}
	got := statsDelta(base, now)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("statsDelta = %v, want %v", got, want)
	}
}

func TestTracedRunCrossChecks(t *testing.T) {
	for _, sp := range []spec{tinyIngest, tinyRead} {
		dir := t.TempDir()
		rec, err := runTraced(newEnv(sp, 3, 1, dir, openStore), filepath.Join(dir, "spans.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct || len(rec.Errors) > 0 {
			t.Errorf("%s: traced run not correct: %v", sp.name, rec.Errors)
		}
		for _, pl := range perLayer {
			if _, ok := rec.Metrics[pl.name]; !ok {
				t.Errorf("%s: %s missing", sp.name, pl.name)
			}
		}
		if rec.Metrics["cole.commit_call_p50_ms"].Value <= 0 || rec.Metrics["harness.trace_overhead_ratio"].Value <= 0 {
			t.Errorf("%s: commit spans or overhead ratio missing: %v", sp.name, rec.Metrics)
		}
	}
}

// A traced count that disagrees with the engine's counters fails the run.
func TestCrossCheckRejectsMismatch(t *testing.T) {
	tr := cole.NewTracer(16)
	if errs := crossCheck(tr, cole.Stats{Commits: 1}); len(errs) != 1 || !strings.Contains(errs[0], "commits") {
		t.Fatalf("crossCheck = %v", errs)
	}
	if errs := crossCheck(tr, cole.Stats{TraceDropped: 2}); len(errs) != 1 {
		t.Fatalf("crossCheck = %v", errs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// BENCHMARK.json, at the root of the checkout, must list exactly the
// metrics the program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range def.Workloads {
		wls = append(wls, w.Name)
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	if !reflect.DeepEqual(wls, names) {
		t.Errorf("workloads %v, program has %v", wls, names)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s, program has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}
