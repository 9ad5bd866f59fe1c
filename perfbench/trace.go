package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"fchain/internal/obs"
)

// span is one timed interval of the benchmark's own trace. Spans of one
// violation share its index; Parent is -1 for a root.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Violation int    `json:"violation"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps the run's spans in memory; they are written out once, at
// exit.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.origin).Nanoseconds() }

// begin opens a span under parent (-1 for a root) starting now.
func (r *recorder) begin(parent, violation int, name string) int {
	return r.add(span{Parent: parent, Violation: violation, Name: name, StartNS: r.now()})
}

// end closes span id now.
func (r *recorder) end(id int) { r.spans[id].EndNS = r.now() }

func (r *recorder) add(s span) int {
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return s.ID
}

// extent is the interval a program trace's root spans cover, on its own
// clock.
func extent(tr *obs.Trace) (lo, hi int64) {
	lo, hi = tr.Spans[0].StartNS, tr.Spans[0].StartNS+tr.Spans[0].DurNS
	for _, s := range tr.Spans {
		if s.Parent < 0 {
			lo = min(lo, s.StartNS)
			hi = max(hi, s.StartNS+s.DurNS)
		}
	}
	return lo, hi
}

// graft copies a program trace under parent so that its roots start at
// start on the benchmark's clock. The program's clock is not the
// benchmark's; callers centre a lone child, whose placement changes no self
// time. The analysis engine records component:<name> spans at assembly
// time, after the tasks ran, so they are dropped and their children
// re-parented.
func (r *recorder) graft(parent int, tr *obs.Trace, start int64) {
	if tr == nil || len(tr.Spans) == 0 {
		return
	}
	lo, _ := extent(tr)
	p := r.spans[parent]
	shift := start - lo
	ids := make([]int, len(tr.Spans))
	for i, s := range tr.Spans {
		par := parent
		if s.Parent >= 0 {
			par = ids[s.Parent]
		}
		if strings.HasPrefix(s.Name, "component:") {
			ids[i] = par
			continue
		}
		ids[i] = r.add(span{Parent: par, Violation: p.Violation, Name: s.Name,
			StartNS: s.StartNS + shift, EndNS: s.StartNS + s.DurNS + shift})
	}
}

// graftCentred grafts a lone program trace centred inside parent.
func (r *recorder) graftCentred(parent int, tr *obs.Trace) {
	if tr == nil || len(tr.Spans) == 0 {
		return
	}
	lo, hi := extent(tr)
	p := r.spans[parent]
	r.graft(parent, tr, p.StartNS+max(0, p.dur()-(hi-lo))/2)
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
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

// layer maps a span name to the layer it is folded into: "ask:slave-2" and
// "select:cpu" fold into "ask" and "select".
func layer(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// children indexes each span's children in start order.
func children(spans []span) [][]int {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for _, k := range kids {
		sort.Slice(k, func(a, b int) bool { return spans[k[a]].StartNS < spans[k[b]].StartNS })
	}
	return kids
}

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the span. Overlapping children (parallel work)
// are counted once.
func selfTime(spans []span, kids []int, id int) int64 {
	p := spans[id]
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, c := range kids {
		lo, hi := max(spans[c].StartNS, p.StartNS), min(spans[c].EndNS, p.EndNS)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return p.dur() - covered
}

// blockingPath attributes every instant of span id to one layer along the
// chain that decides when the span ends: the child that ends last, then the
// last child ending before that one starts, and so on, each folded
// recursively. Time between chain links that parallel siblings cover goes
// to those siblings' layers; time no child covers is the span's own. The
// layer totals add up to the span's duration.
func blockingPath(spans []span, kids [][]int, id int, acc map[string]int64) {
	acc[layer(spans[id].Name)] += selfTime(spans, kids[id], id)
	byEnd := append([]int(nil), kids[id]...)
	sort.Slice(byEnd, func(a, b int) bool { return spans[byEnd[a]].EndNS > spans[byEnd[b]].EndNS })
	p := spans[id]
	bound := p.EndNS
	for _, c := range byEnd {
		if spans[c].EndNS > bound || spans[c].StartNS < p.StartNS {
			continue
		}
		coverGap(spans, kids[id], spans[c].EndNS, bound, acc)
		blockingPath(spans, kids, c, acc)
		bound = spans[c].StartNS
	}
	coverGap(spans, kids[id], p.StartNS, bound, acc)
}

// coverGap attributes the parts of [lo, hi) that the sibling spans kids
// (sorted by start) cover to the first sibling covering each part.
func coverGap(spans []span, kids []int, lo, hi int64, acc map[string]int64) {
	at := lo
	for _, c := range kids {
		s, e := max(spans[c].StartNS, at), min(spans[c].EndNS, hi)
		if e > s {
			acc[layer(spans[c].Name)] += e - s
			at = e
		}
	}
}

// selfByLayer sums every span's self time per layer over the subtree of id
// (all work, parallel or not).
func selfByLayer(spans []span, kids [][]int, id int, acc map[string]int64) {
	acc[layer(spans[id].Name)] += selfTime(spans, kids[id], id)
	for _, c := range kids[id] {
		selfByLayer(spans, kids, c, acc)
	}
}
