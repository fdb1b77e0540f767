package main

import (
	"io/fs"
	"math"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"cole"
)

// samples holds raw per-call latencies in nanoseconds. Percentiles are
// read from the sorted raw values, not from a bucketed histogram, so a
// reported time carries every digit it was measured with.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// pct returns the p-quantile (0 ≤ p ≤ 1) by the nearest-rank rule; 0
// for an empty set. It sorts s in place.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(s[rank])
}

// statsDelta returns now − base for every integer field of cole.Stats,
// keyed by field name. It walks the struct by reflection, so a counter
// added to Stats is reported without editing this function.
func statsDelta(base, now cole.Stats) map[string]int64 {
	out := map[string]int64{}
	bv, nv := reflect.ValueOf(base), reflect.ValueOf(now)
	for i := 0; i < nv.NumField(); i++ {
		f := nv.Type().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			out[f.Name] = nv.Field(i).Int() - bv.Field(i).Int()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out[f.Name] = int64(nv.Field(i).Uint() - bv.Field(i).Uint())
		}
	}
	return out
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// dirBytes sums the sizes of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// goRuntime is a snapshot of the Go runtime counters the per-layer
// report differences.
type goRuntime struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoRuntime() goRuntime {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goRuntime{
		allocBytes:   uint64(val(0)),
		allocObjects: uint64(val(1)),
		gcCPU:        val(2),
		totalCPU:     val(3),
	}
}
