package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Times are nanoseconds since the tracer
// started; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

// tracer keeps the spans the benchmark records around its own calls into
// each layer. Spans stay in memory until write. A disabled tracer
// records nothing and begin returns 0.
type tracer struct {
	on  bool
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, t0: time.Now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int64) int64 {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, Run: t.run})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already finished span.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Run: t.run})
	t.mu.Unlock()
}

// total returns the summed duration of every closed span named name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			sum += s.End - s.Start
		}
	}
	return time.Duration(sum)
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// stageTotals is the per-name aggregate of the spans: count, total
// duration, and self time (duration minus the part covered by children).
type stageTotals struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// aggregate computes stageTotals per span name.
func aggregate(spans []span) map[string]stageTotals {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]stageTotals{}
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		st := out[s.Name]
		st.Count++
		st.TotalNS += s.End - s.Start
		st.SelfNS += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return sum + curHi - curLo
}

// write stores the spans and their per-name totals as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"run": t.run, "stages": aggregate(t.spans), "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// summary prints the per-name totals, largest self time first.
func (t *tracer) summary(w io.Writer) {
	t.mu.Lock()
	agg := aggregate(t.spans)
	t.mu.Unlock()
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].SelfNS > agg[names[j]].SelfNS })
	for _, n := range names {
		a := agg[n]
		fmt.Fprintf(w, "span %-24s count=%-7d total=%-12s self=%s\n", n, a.Count,
			time.Duration(a.TotalNS).Round(time.Microsecond), time.Duration(a.SelfNS).Round(time.Microsecond))
	}
}
