package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchDef is the part of BENCHMARK.json the comparison uses.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRecords reads every untraced result file in dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace == 0 && r.Workload != "" {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4), whose
// default method is "exclusive".
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	q := make([]float64, 3)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// compare prints, for each workload and end-to-end metric, the median
// and quartiles of both result sets, how many same-seed pairs B won, and
// a verdict against the metric's bound:
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  either set's quartile spread exceeds the bound, and B
//	            does not beat A on every run
//	better      B won at least 9 of 10 pairs and the medians differ by
//	            more than A's spread
//	same        otherwise
//
// gain is B's relative improvement over A's median (negative: worse).
// It also reports any seed whose final Hstate differs, on the
// workloads whose digests are deterministic. ok is false on any worse,
// unresolved or Hstate mismatch.
func compare(w io.Writer, benchFile, dirA, dirB string) (bool, error) {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return false, err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchFile, err)
	}
	a, err := loadRecords(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(dirB)
	if err != nil {
		return false, err
	}
	ok := true
	var workloads []string
	for _, sp := range specs {
		workloads = append(workloads, sp.name)
	}
	fmt.Fprintf(w, "%-7s %-21s %33s %33s %6s %5s %s\n", "load", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := byWorkload(a, wl), byWorkload(b, wl)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			lower := m.Better == "lower"
			better := func(x, y float64) bool { // x better than y
				if lower {
					return x < y
				}
				return x > y
			}
			wins, pairs := 0, 0
			sb := seedMap(rb, m.Name)
			for seed, x := range seedMap(ra, m.Name) {
				if y, ok := sb[seed]; ok {
					pairs++
					if better(y, x) {
						wins++
					}
				}
			}
			spreadA, spreadB := (a3-a1)/math.Abs(am), (b3-b1)/math.Abs(bm)
			worse := (bm - am) / math.Abs(am)
			if !lower {
				worse = -worse
			}
			allBetter := true
			for _, x := range va {
				for _, y := range vb {
					allBetter = allBetter && better(y, x)
				}
			}
			verdict := "same"
			switch {
			case (spreadA > m.Bound || spreadB > m.Bound) && !allBetter:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && -worse > spreadA:
				verdict = "better"
			}
			if verdict == "worse" || verdict == "unresolved" {
				ok = false
			}
			fmt.Fprintf(w, "%-7s %-21s %10.5g [%9.4g, %9.4g] %10.5g [%9.4g, %9.4g] %3d/%-2d %5.3g %s (spread A %.3f B %.3f, gain %+.3f)\n",
				wl, m.Name, am, a1, a3, bm, b1, b3, wins, pairs, m.Bound, verdict, spreadA, spreadB, -worse)
		}
		if wl == "ingest" || wl == "prov" {
			roots := map[int64]string{}
			for _, r := range append(append([]record(nil), ra...), rb...) {
				if prev, seen := roots[r.Seed]; seen && prev != r.Hstate {
					fmt.Fprintf(w, "%-7s hstate of seed %d differs: %s vs %s\n", wl, r.Seed, prev, r.Hstate)
					ok = false
				}
				roots[r.Seed] = r.Hstate
			}
		}
	}
	return ok, nil
}

func byWorkload(rs []record, wl string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == wl {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

// seedMap keys a metric's values by seed; a seed run more than once
// keeps its last value.
func seedMap(rs []record, name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range rs {
		out[r.Seed] = r.Metrics[name].Value
	}
	return out
}
