package shard

import (
	"net/http/httptest"
	"strings"
	"testing"

	"cole/internal/core"
	"cole/internal/obs"
)

// TestStoreStatsMergesHistograms checks that the sharded Stats roll-up
// sums the per-shard operation histograms: the store-level commit count
// must equal the sum of per-shard commits, and the read histograms must
// cover reads routed to any shard.
func TestStoreStatsMergesHistograms(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 4, true)
	defer s.Close()
	runBlocks(t, s, 0, 10, 32, 128)
	for i := 0; i < 16; i++ {
		if _, _, err := s.Get(testAddr(i)); err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if st.Hist == nil {
		t.Fatal("sharded Stats.Hist is nil")
	}
	// Every shard commits every block, so the merged commit histogram
	// holds shards × blocks samples — the same total Commits counts.
	if got, want := st.Hist.Commit.Count(), st.Commits; got != want {
		t.Fatalf("merged commit histogram count %d, Stats.Commits %d", got, want)
	}
	if want := int64(4 * 10); st.Commits != want {
		t.Fatalf("Stats.Commits = %d, want %d (4 shards × 10 blocks)", st.Commits, want)
	}
	if st.Hist.Get.Count() == 0 {
		t.Fatal("merged Get histogram empty after routed reads")
	}
	// The merged extremes must bound every shard's own.
	sum := st.Hist.Commit.Summary()
	if sum == nil {
		t.Fatal("merged commit histogram has no summary")
	}
	if sum.Min <= 0 || sum.Max < sum.Min {
		t.Fatalf("merged extremes implausible: min=%v max=%v", sum.Min, sum.Max)
	}
}

// TestStoreStatsTraceCounters checks the tracer-related roll-up rules: a
// shared tracer's drop counter takes the cross-shard max (never the sum),
// and pacing sleeps sum.
func TestStoreStatsTraceCounters(t *testing.T) {
	// Capacity 1: the first event fills the ring, everything after drops,
	// and every shard reports the same shared drop counter.
	tr := obs.NewTracer(1)
	s, err := Open(core.Options{
		Dir:         t.TempDir(),
		Shards:      2,
		MemCapacity: 16,
		AsyncMerge:  true,
		Trace:       tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runBlocks(t, s, 0, 6, 32, 64)
	// Quiesce before comparing: an async merge still running would record
	// (and drop) events between the two reads below.
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}

	dropped := tr.Dropped()
	if dropped == 0 {
		t.Fatal("expected drops from a capacity-1 tracer")
	}
	st := s.Stats()
	if st.TraceDropped != dropped {
		t.Fatalf("Stats.TraceDropped = %d, tracer dropped %d (max-across-shards, not sum)", st.TraceDropped, dropped)
	}
}

// TestMetricsExpositionPerShard scrapes the shared metrics handler and
// checks that every shard appears with its own shard label and that the
// store's shared merge pool is exported exactly once.
func TestMetricsExpositionPerShard(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 2, false)
	runBlocks(t, s, 0, 4, 16, 64)

	rec := httptest.NewRecorder()
	obs.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`shard="0"`,
		`shard="1"`,
		"cole_sched_submitted{store=\"" + dir + "\"}",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics exposition missing %q\n%s", want, body)
		}
	}
	if n := strings.Count(body, "cole_sched_submitted{store=\""+dir+"\"}"); n != 1 {
		t.Fatalf("shared merge pool exported %d times, want 1", n)
	}

	s.Close()
	rec = httptest.NewRecorder()
	obs.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), `store="`+dir) {
		t.Fatal("closed store still present in metrics exposition")
	}
}
