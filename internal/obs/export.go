package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file holds the performance-analysis exporters over the span
// store: folded-stack flamegraph output (WriteFolded) and the
// critical-path report (CriticalPath / WriteCriticalPath). Both operate
// on Snapshot, so they work on live traces too — running spans carry
// their elapsed-so-far durations.

// WriteFolded renders the span tree in folded-stacks format — one
// "root;child;leaf <value>" line per distinct stack, value = the
// stack's aggregated self time in microseconds — the input format of
// flamegraph.pl and speedscope. Self time is a span's duration minus
// its children's (clamped at zero: concurrent children can sum past the
// parent), identical stacks aggregate, and lines sort lexicographically,
// so the output is deterministic under an injectable clock.
func (t *Tracer) WriteFolded(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans := t.Snapshot()
	childDur := map[int]time.Duration{}
	ids := map[int]bool{}
	for _, d := range spans {
		ids[d.ID] = true
	}
	parentOf := map[int]int{}
	for _, d := range spans {
		p := d.Parent
		if !ids[p] {
			p = 0 // orphans fold as roots, mirroring WriteTree
		}
		parentOf[d.ID] = p
		childDur[p] += d.Dur
	}
	stacks := map[string]int64{}
	var stackOf func(id int) string
	memo := map[int]string{}
	byID := map[int]SpanData{}
	for _, d := range spans {
		byID[d.ID] = d
	}
	stackOf = func(id int) string {
		if s, ok := memo[id]; ok {
			return s
		}
		d := byID[id]
		s := d.Name
		if p := parentOf[id]; p != 0 {
			s = stackOf(p) + ";" + s
		}
		memo[id] = s
		return s
	}
	for _, d := range spans {
		self := d.Dur - childDur[d.ID]
		if self < 0 {
			self = 0
		}
		stacks[stackOf(d.ID)] += self.Microseconds()
	}
	keys := make([]string, 0, len(stacks))
	for k := range stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, stacks[k]); err != nil {
			return err
		}
	}
	return nil
}

// PathNode is one hop of a critical path: the span, its full duration,
// and the share of wall time attributed to it (its duration minus the
// duration of the child the path continues through — for the last hop,
// its whole duration).
type PathNode struct {
	ID      int
	Name    string
	Start   time.Duration
	Dur     time.Duration
	Self    time.Duration
	Running bool
}

// CriticalPath walks the span hierarchy along the chain that determined
// the trace's wall time: starting from the latest-finishing root, each
// hop descends into the latest-finishing child — under concurrent
// children (parallel experiment cells) that is the longest chain.
// Self on each node is its duration minus the chosen child's, so the
// Self column answers "where would shaving time actually shorten the
// run". Returns nil on an empty (or nil) tracer.
func (t *Tracer) CriticalPath() []PathNode {
	if t == nil {
		return nil
	}
	spans := t.Snapshot()
	if len(spans) == 0 {
		return nil
	}
	ids := map[int]bool{}
	for _, d := range spans {
		ids[d.ID] = true
	}
	children := map[int][]SpanData{}
	for _, d := range spans {
		p := d.Parent
		if !ids[p] {
			p = 0
		}
		children[p] = append(children[p], d)
	}
	// latest picks the latest-finishing span; ties resolve to the span
	// that started first (snapshot order), keeping the walk stable.
	latest := func(cands []SpanData) SpanData {
		best := cands[0]
		for _, c := range cands[1:] {
			if c.Start+c.Dur > best.Start+best.Dur {
				best = c
			}
		}
		return best
	}
	var path []PathNode
	cur := latest(children[0])
	for {
		node := PathNode{ID: cur.ID, Name: cur.Name, Start: cur.Start, Dur: cur.Dur, Self: cur.Dur, Running: cur.Running}
		kids := children[cur.ID]
		if len(kids) == 0 {
			path = append(path, node)
			return path
		}
		next := latest(kids)
		node.Self = cur.Dur - next.Dur
		if node.Self < 0 {
			node.Self = 0
		}
		path = append(path, node)
		cur = next
	}
}

// WriteCriticalPath renders CriticalPath as an indented report with each
// hop's total and attributed (self) time, plus self's share of the
// path root's duration.
func (t *Tracer) WriteCriticalPath(w io.Writer) error {
	if t == nil {
		return nil
	}
	path := t.CriticalPath()
	if len(path) == 0 {
		_, err := fmt.Fprintln(w, "critical path: no spans recorded")
		return err
	}
	total := path[0].Dur
	if _, err := fmt.Fprintf(w, "critical path: %d spans, %s wall time\n", len(path), total); err != nil {
		return err
	}
	width := 0
	for i, n := range path {
		if l := 2*i + len(n.Name); l > width {
			width = l
		}
	}
	for i, n := range path {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(n.Self) / float64(total)
		}
		marker := ""
		if n.Running {
			marker = "  [running]"
		}
		name := strings.Repeat(" ", 2*i) + n.Name
		if _, err := fmt.Fprintf(w, "  %s%s  total=%s self=%s (%s%%)%s\n",
			name, strings.Repeat(" ", width-len(name)+2), n.Dur, n.Self,
			strconv.FormatFloat(pct, 'f', 1, 64), marker); err != nil {
			return err
		}
	}
	return nil
}
