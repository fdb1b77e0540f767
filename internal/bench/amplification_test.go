package bench

import (
	"fmt"
	"reflect"
	"testing"

	"cole"
	"cole/internal/core"
	"cole/internal/types"
)

func TestComputeAmplificationFormulas(t *testing.T) {
	// Hand-derived: 100 puts of EntrySize bytes flushed once (no merges)
	// is WA = 1; 400 page reads over 200 gets is RA = 2; a disk footprint
	// of 1.5× the live bytes is SA = 1.5.
	st := core.Stats{
		Puts:       100,
		Gets:       200,
		FlushBytes: 100 * types.EntrySize,
		MergeBytes: 0,
		PageReads:  400,
	}
	sb := core.StorageBreakdown{
		Entries:    100,
		DataBytes:  100 * types.EntrySize,
		IndexBytes: 50 * types.EntrySize,
	}
	a := ComputeAmplification(st, sb)
	if a.Write != 1.0 {
		t.Fatalf("WA = %v, want 1.0", a.Write)
	}
	if a.Read != 2.0 {
		t.Fatalf("RA = %v, want 2.0", a.Read)
	}
	if a.Space != 1.5 {
		t.Fatalf("SA = %v, want 1.5", a.Space)
	}
	if a.UserBytes != 100*types.EntrySize || a.DiskBytes != 150*types.EntrySize {
		t.Fatalf("raw accounting off: %+v", a)
	}

	// Merges add to the numerator: re-writing all flushed bytes once more
	// doubles WA.
	st.MergeBytes = st.FlushBytes
	if a := ComputeAmplification(st, sb); a.Write != 2.0 {
		t.Fatalf("WA with merges = %v, want 2.0", a.Write)
	}

	// Zero denominators must not divide: a run with no puts, gets, or
	// live entries reports zero factors rather than NaN/Inf.
	if a := ComputeAmplification(core.Stats{}, core.StorageBreakdown{}); a.Write != 0 || a.Read != 0 || a.Space != 0 {
		t.Fatalf("empty run: %+v", a)
	}
}

func TestAmplificationFromEngineCounters(t *testing.T) {
	// Drive a real store and check the derived factors against the same
	// formulas applied to its raw counters — the engine's accounting and
	// the report must agree exactly.
	db, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 64, SizeRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const blocks, perBlock = 40, 16
	for b := 1; b <= blocks; b++ {
		if err := db.BeginBlock(uint64(b)); err != nil {
			t.Fatal(err)
		}
		ups := make([]cole.Update, perBlock)
		for i := range ups {
			ups[i] = cole.Update{
				Addr:  types.AddressFromUint64(uint64(i)),
				Value: types.ValueFromBytes([]byte(fmt.Sprintf("b%d-%d", b, i))),
			}
		}
		if err := db.PutBatch(ups); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perBlock; i++ {
		if _, ok, err := db.Get(types.AddressFromUint64(uint64(i))); err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
	}

	st, sb := db.Stats(), db.Storage()
	a := ComputeAmplification(st, sb)

	if st.Puts != blocks*perBlock {
		t.Fatalf("puts %d", st.Puts)
	}
	// 640 entries through MemCapacity 64 at size ratio 2 forces flushes
	// and cascading merges, so write amplification must exceed 1: merged
	// bytes re-count data the flush already wrote once.
	if st.MergeBytes == 0 || a.Write <= 1.0 {
		t.Fatalf("expected merge-driven WA > 1, got WA=%v (flush=%d merge=%d)",
			a.Write, st.FlushBytes, st.MergeBytes)
	}
	if want := float64(st.FlushBytes+st.MergeBytes) / float64(st.Puts*types.EntrySize); a.Write != want {
		t.Fatalf("WA %v, formula %v", a.Write, want)
	}
	if want := float64(st.PageReads) / float64(st.Gets); a.Read != want {
		t.Fatalf("RA %v, formula %v", a.Read, want)
	}
	if want := float64(sb.DataBytes+sb.IndexBytes) / float64(sb.Entries*types.EntrySize); a.Space != want {
		t.Fatalf("SA %v, formula %v", a.Space, want)
	}
	// COLE keeps every version, so the live set is all committed puts.
	if sb.Entries != st.Puts {
		t.Fatalf("entries %d vs puts %d", sb.Entries, st.Puts)
	}
	if a.Space < 1.0 {
		t.Fatalf("SA %v < 1: on-disk footprint cannot undercut live data", a.Space)
	}

	// statsDelta isolates a window: after the run, the delta against the
	// final snapshot is all-zero, and against the zero baseline is st.
	// The histogram travels by pointer, so it is compared by count and
	// cleared before the struct equality check.
	d := statsDelta(st, st)
	if d.Hist == nil || d.Hist.Commit.Count() != 0 || d.Hist.Get.Count() != 0 {
		t.Fatalf("self-delta histograms not empty: %+v", d.Hist)
	}
	d.Hist = nil
	if d != (core.Stats{}) {
		t.Fatalf("self-delta not zero: %+v", d)
	}
	d = statsDelta(core.Stats{}, st)
	if d.Hist.Commit.Count() != st.Hist.Commit.Count() {
		t.Fatalf("zero-baseline delta lost histogram samples: %d vs %d",
			d.Hist.Commit.Count(), st.Hist.Commit.Count())
	}
	d.Hist, st.Hist = nil, nil
	if d != st {
		t.Fatalf("zero-baseline delta changed counters")
	}
}

// TestStatsDeltaHistWindow checks that statsDelta's histogram subtraction
// isolates exactly the operations of a window: commits before the baseline
// snapshot must not appear in the windowed distribution.
func TestStatsDeltaHistWindow(t *testing.T) {
	db, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 64, SizeRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	run := func(from, blocks int) {
		for b := from; b < from+blocks; b++ {
			if err := db.BeginBlock(uint64(b)); err != nil {
				t.Fatal(err)
			}
			if err := db.Put(types.AddressFromUint64(uint64(b%8)), types.ValueFromUint64(uint64(b))); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(1, 10)
	base := db.Stats()
	run(11, 25)
	d := statsDelta(base, db.Stats())

	if d.Commits != 25 {
		t.Fatalf("windowed Commits = %d, want 25", d.Commits)
	}
	if d.Hist == nil {
		t.Fatal("windowed Stats.Hist is nil")
	}
	if got := d.Hist.Commit.Count(); got != 25 {
		t.Fatalf("windowed commit histogram holds %d samples, want 25", got)
	}
	if s := d.Hist.Commit.Summary(); s == nil || s.Count != 25 || s.Min <= 0 {
		t.Fatalf("windowed commit summary implausible: %+v", s)
	}
	// The baseline snapshot itself must be unchanged by the subtraction.
	if got := base.Hist.Commit.Count(); got != 10 {
		t.Fatalf("baseline mutated: %d samples, want 10", got)
	}
}

// TestStatsDeltaCoversEveryCounter sets every int64 field of core.Stats
// by reflection, so a counter added to Stats without a matching line in
// statsDelta fails here instead of leaking session totals into a window.
// MaxCommitNanos is a high-water mark: a raised mark passes through, an
// unchanged one belongs to no commit in the window.
func TestStatsDeltaCoversEveryCounter(t *testing.T) {
	var base, now core.Stats
	bv, nv := reflect.ValueOf(&base).Elem(), reflect.ValueOf(&now).Elem()
	for i := 0; i < bv.NumField(); i++ {
		if bv.Field(i).Kind() == reflect.Int64 {
			bv.Field(i).SetInt(int64(10 + i))
			nv.Field(i).SetInt(int64(100 + 3*i))
		}
	}
	d := reflect.ValueOf(statsDelta(base, now))
	for i := 0; i < d.NumField(); i++ {
		if d.Field(i).Kind() != reflect.Int64 {
			continue
		}
		name := d.Type().Field(i).Name
		want := int64(90 + 2*i)
		if name == "MaxCommitNanos" {
			want = int64(100 + 3*i)
		}
		if got := d.Field(i).Int(); got != want {
			t.Errorf("statsDelta %s = %d, want %d", name, got, want)
		}
	}

	now.MaxCommitNanos = base.MaxCommitNanos
	if got := statsDelta(base, now).MaxCommitNanos; got != 0 {
		t.Errorf("unchanged MaxCommitNanos mark = %d in the window, want 0", got)
	}
}
