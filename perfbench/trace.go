package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"cole"
	"cole/internal/obs"
)

// spanKind names a call the benchmark makes into cole.
type spanKind uint8

const (
	spanBegin spanKind = iota
	spanPutBatch
	spanCommit
	spanGet
	spanProv
	spanVerify
)

var spanNames = [...]string{
	spanBegin:    "cole.begin_block",
	spanPutBatch: "cole.put_batch",
	spanCommit:   "cole.commit",
	spanGet:      "cole.get",
	spanProv:     "cole.prov",
	spanVerify:   "cole.verify",
}

// span is one call, in nanoseconds since its log's base time.
type span struct {
	start, end int64
	kind       spanKind
}

// spanLog keeps the spans of one traced phase in memory; they are
// written out when the run ends. A nil log records nothing, which is how
// untraced phases run the same code.
type spanLog struct {
	base  time.Time
	spans []span
}

func (l *spanLog) add(k spanKind, t0, t1 time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{start: int64(t0.Sub(l.base)), end: int64(t1.Sub(l.base)), kind: k})
}

// child returns a log for another goroutine, on the same clock.
func (l *spanLog) child() *spanLog {
	if l == nil {
		return nil
	}
	return &spanLog{base: l.base}
}

func (l *spanLog) merge(o *spanLog) {
	if l == nil || o == nil {
		return
	}
	l.spans = append(l.spans, o.spans...)
}

// durations returns the durations of the spans of kind k that start in
// [from, to].
func (l *spanLog) durations(k spanKind, from, to int64) samples {
	var s samples
	for _, sp := range l.spans {
		if sp.kind == k && sp.start >= from && sp.start <= to {
			s = append(s, sp.end-sp.start)
		}
	}
	return s
}

// newTracer returns an engine tracer and the offset that maps its event
// timestamps onto base's clock. The tracer's epoch is private, so one
// marker event recorded between two clock reads pins it; the marker is
// then discarded.
func newTracer(base time.Time) (*cole.Tracer, int64) {
	tr := cole.NewTracer(0)
	t0 := time.Now()
	tr.Record(obs.EvViewPublish, -1, -1, 0, 0, 0)
	t1 := time.Now()
	mid := t0.Add(t1.Sub(t0) / 2)
	off := int64(mid.Sub(base)) - tr.Events()[0].TS
	tr.Reset()
	return tr, off
}

// engineSpan is an engine trace event turned into a span on the
// harness's clock.
type engineSpan struct {
	start, end int64
	ev         obs.Event
	parent     int // index of the enclosing harness span, -1 if background
}

// childTypes are the engine events that run inside a commit: their
// time is subtracted from the commit span to give its self time.
var childTypes = map[obs.EventType]bool{
	obs.EvFlushEnd: true, obs.EvMergeEnd: true, obs.EvManifest: true, obs.EvStall: true,
}

// engineSpans converts the events of tr that carry a duration into spans
// and attaches each to the writer-side harness call that encloses it.
func engineSpans(tr *cole.Tracer, off int64, l *spanLog) []engineSpan {
	var writer []int
	for i, sp := range l.spans {
		if sp.kind <= spanCommit {
			writer = append(writer, i)
		}
	}
	sort.Slice(writer, func(a, b int) bool { return l.spans[writer[a]].start < l.spans[writer[b]].start })
	var out []engineSpan
	for _, ev := range tr.Events() {
		if ev.Dur == 0 {
			continue
		}
		es := engineSpan{start: off + ev.TS - ev.Dur, end: off + ev.TS, ev: ev, parent: -1}
		j := sort.Search(len(writer), func(j int) bool { return l.spans[writer[j]].start > es.start }) - 1
		if j >= 0 && l.spans[writer[j]].end >= es.end {
			es.parent = writer[j]
		}
		out = append(out, es)
	}
	return out
}

// commitSelf returns, for each engine commit span in [from, to], its
// duration minus the part covered by flush, merge, manifest and stall
// spans of the same shard that lie inside it.
func commitSelf(es []engineSpan, from, to int64) samples {
	children := map[int32][]engineSpan{}
	for _, e := range es {
		if childTypes[e.ev.Type] {
			children[e.ev.Shard] = append(children[e.ev.Shard], e)
		}
	}
	var out samples
	for _, c := range es {
		if c.ev.Type != obs.EvCommit || c.end < from || c.end > to {
			continue
		}
		var in [][2]int64
		for _, ch := range children[c.ev.Shard] {
			if ch.start >= c.start && ch.end <= c.end {
				in = append(in, [2]int64{ch.start, ch.end})
			}
		}
		out = append(out, c.end-c.start-covered(in))
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(in [][2]int64) int64 {
	sort.Slice(in, func(i, j int) bool { return in[i][0] < in[j][0] })
	var total, curS, curE int64
	for i, iv := range in {
		if i == 0 || iv[0] > curE {
			total += curE - curS
			curS, curE = iv[0], iv[1]
		} else if iv[1] > curE {
			curE = iv[1]
		}
	}
	return total + curE - curS
}

// eventDurations returns the durations of engine spans of type t that
// end in [from, to].
func eventDurations(es []engineSpan, t obs.EventType, from, to int64) samples {
	var s samples
	for _, e := range es {
		if e.ev.Type == t && e.end >= from && e.end <= to {
			s = append(s, e.end-e.start)
		}
	}
	return s
}

// crossCheck compares the traced event counts of a closed store against
// its counters: every commit, flush and merge the engine counted must
// appear in the trace exactly once, and none may have been dropped.
func crossCheck(tr *cole.Tracer, st cole.Stats) []string {
	var errs []string
	if st.TraceDropped > 0 {
		errs = append(errs, fmt.Sprintf("trace dropped %d events", st.TraceDropped))
	}
	for _, c := range []struct {
		name  string
		typ   obs.EventType
		count int64
	}{
		{"commits", obs.EvCommit, st.Commits},
		{"flushes", obs.EvFlushStart, st.Flushes},
		{"merges", obs.EvMergeStart, st.Merges},
	} {
		if n := tr.CountType(c.typ); n != c.count {
			errs = append(errs, fmt.Sprintf("trace has %d %s, Stats has %d", n, c.name, c.count))
		}
	}
	return errs
}

// writeTrace writes the harness spans and engine spans as JSON lines.
// Point reads are many and alike, so only the first maxGets are kept.
func writeTrace(path string, l *spanLog, es []engineSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	const maxGets = 10000
	gets := 0
	for i, sp := range l.spans {
		if sp.kind == spanGet {
			if gets++; gets > maxGets {
				continue
			}
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", i, spanNames[sp.kind], sp.start, sp.end)
	}
	for _, e := range es {
		fmt.Fprintf(w, `{"name":"core.%s","start_ns":%d,"end_ns":%d,"parent":%d,"shard":%d,"level":%d,"bytes":%d}`+"\n",
			e.ev.Type, e.start, e.end, e.parent, e.ev.Shard, e.ev.Level, e.ev.Bytes)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
