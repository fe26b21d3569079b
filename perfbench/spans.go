package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sdadcs/internal/trace"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the log's epoch; Parent is 0 for a root span; Op groups the spans
// of one benchmark operation (a mine, a re-mine append, a job).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced code paths call it freely. It is
// not safe for concurrent use; the serve clients record through their own
// logs and merge them afterwards.
type spanLog struct {
	epoch time.Time
	spans []span
	next  int64
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// at converts a wall-clock reading to log time.
func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// add records a finished span and returns its ID.
func (l *spanLog) add(name string, op, parent int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	return l.addNS(name, op, parent, l.at(start), l.at(end))
}

func (l *spanLog) addNS(name string, op, parent, start, end int64) int64 {
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return l.next
}

// addTraceSpans turns the program's own span events into child spans of
// parent: KindRemine becomes stream.remine, KindLevel core.level and
// KindSDAD sdadcs.call. base is the wall-clock time at which the tracer's
// clock read zero. Each span nests under the innermost earlier span that
// contains it (a level inside its re-mine, an SDAD-CS call inside its
// level), so self times exclude the nested work.
func (l *spanLog) addTraceSpans(tr *trace.Trace, op, parent int64, base time.Time) {
	if l == nil || tr == nil {
		return
	}
	b := l.at(base)
	type iv struct{ id, start, end int64 }
	var outer []iv // added spans, outermost kinds first
	for _, k := range []struct {
		kind trace.Kind
		name string
	}{
		{trace.KindRemine, "stream.remine"},
		{trace.KindLevel, "core.level"},
		{trace.KindSDAD, "sdadcs.call"},
	} {
		var added []iv
		for i := range tr.Events {
			e := &tr.Events[i]
			if e.Kind != k.kind {
				continue
			}
			start := b + e.TS
			end := start + int64(e.V3)
			p := parent
			for j := len(outer) - 1; j >= 0; j-- {
				if start >= outer[j].start && end <= outer[j].end {
					p = outer[j].id
					break
				}
			}
			added = append(added, iv{l.addNS(k.name, op, p, start, end), start, end})
		}
		outer = append(outer, added...)
	}
}

// merge appends another log's spans, re-basing their IDs and times onto l.
func (l *spanLog) merge(o *spanLog) {
	if l == nil || o == nil {
		return
	}
	shift := int64(o.epoch.Sub(l.epoch))
	base := l.next
	for _, s := range o.spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		l.spans = append(l.spans, s)
	}
	l.next += o.next
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, the total and the self time: a span's
// duration minus the part of it its children cover (overlapping children,
// as parallel SDAD-CS calls are, count once).
func (l *spanLog) selfTimes() map[string][2]time.Duration {
	kids := make(map[int64][][2]int64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string][2]time.Duration)
	for _, s := range l.spans {
		total := s.End - s.Start
		self := total - covered(kids[s.ID], s.Start, s.End)
		t := out[s.Name]
		t[0] += time.Duration(total)
		t[1] += time.Duration(self)
		out[s.Name] = t
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var n int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			n += e - s
			cur = e
		}
	}
	return n
}

// printSelfTimes writes the per-layer busy (total) and self time table.
func (l *spanLog) printSelfTimes(w io.Writer) {
	st := l.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-28s %12s %12s\n", "span", "total", "self")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %12s %12s\n", n, st[n][0].Round(time.Microsecond), st[n][1].Round(time.Microsecond))
	}
}
