package bench

import (
	"strings"
	"testing"
	"time"
)

// TestStallBenchTiny runs the stalls matrix at toy scale: one paced and
// one unpaced row per system, the digest-identity pass across both
// cells, and a headline note comparing the two p99.9 commits.
func TestStallBenchTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop timed cells")
	}
	cfg := tiny()
	cfg.Duration = 150 * time.Millisecond
	cfg.WarmUp = 20 * time.Millisecond
	table, err := StallBench(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range table.Columns {
		if c == "merge" {
			t.Fatal("stalls table still carries a merge-mode column")
		}
	}
	want := []struct {
		sys    System
		pacing string
	}{
		{SysCOLE, "unpaced"}, {SysCOLE, "paced"},
		{SysCOLEAsync, "unpaced"}, {SysCOLEAsync, "paced"},
	}
	if len(table.Results) != len(want) || len(table.Rows) != len(want) {
		t.Fatalf("got %d results / %d rows, want %d", len(table.Results), len(table.Rows), len(want))
	}
	for i, w := range want {
		res := table.Results[i]
		if res.System != w.sys || res.Pacing != w.pacing {
			t.Fatalf("row %d = %s/%s, want %s/%s", i, res.System, res.Pacing, w.sys, w.pacing)
		}
		if (res.PacingTarget > 0) != (w.pacing == "paced") {
			t.Fatalf("row %d (%s): PacingTarget = %d", i, w.pacing, res.PacingTarget)
		}
		if res.Blocks == 0 || res.CommitLat == nil {
			t.Fatalf("row %d measured nothing: %+v", i, res)
		}
	}
	notes := strings.Join(table.Notes, "\n")
	if !strings.Contains(notes, "digest identity") {
		t.Fatalf("identity pass not reported:\n%s", notes)
	}
	for _, sys := range []System{SysCOLE, SysCOLEAsync} {
		if !strings.Contains(notes, string(sys)+": paced p99.9 commit") {
			t.Fatalf("no paced-vs-unpaced headline for %s:\n%s", sys, notes)
		}
	}
}

// TestStallCellsDifferOnlyInPacing pins the matrix's write path: every
// cell runs chunked merges at the given quantum with the sorted L0
// bulk-load, and only the paced cell sets a pacing target.
func TestStallCellsDifferOnlyInPacing(t *testing.T) {
	cfg := tiny()
	const target, chunk = 1 << 20, 16
	for _, cell := range stallCells {
		o := stallOptions(t.TempDir(), cfg, SysCOLEAsync, cell, target, cfg.MemCap, chunk)
		if o.MergeChunk != chunk || !o.SortedBatch {
			t.Fatalf("%s cell: MergeChunk=%d SortedBatch=%v, want %d/true", cell.pacing(), o.MergeChunk, o.SortedBatch, chunk)
		}
		want := int64(0)
		if cell.paced {
			want = target
		}
		if o.PacingTarget != want {
			t.Fatalf("%s cell: PacingTarget = %d, want %d", cell.pacing(), o.PacingTarget, want)
		}
	}
}
