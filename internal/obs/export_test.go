package obs

import (
	"bytes"
	"strings"
	"testing"
)

// buildWaveTrace records a DAG-wave-shaped tree under the stepping fake
// clock: run → exec → dag-wave → two dag-node children, so the folded
// output exercises stack aggregation and the critical path has a real
// longest chain to pick (the second node finishes later).
func buildWaveTrace() *Tracer {
	tr := NewWithClock(fakeClock()) // epoch consumes the 0ms reading
	run := tr.Root("run")           // start 1ms
	exec := run.Child("exec")       // start 2ms
	w := exec.Child("dag-wave")     // start 3ms
	n1 := w.Child("dag-node")       // start 4ms
	n1.End()                        // dur 1ms
	n2 := w.Child("dag-node")       // start 6ms
	n2.End()                        // dur 1ms, ends at 7ms (later than n1)
	w.End()                         // dur 5ms
	exec.End()                      // dur 7ms
	run.End()                       // dur 9ms
	return tr
}

func TestFoldedGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildWaveTrace().WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.folded.golden", buf.Bytes())
}

func TestFoldedAggregatesSiblingStacks(t *testing.T) {
	var buf bytes.Buffer
	if err := buildWaveTrace().WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The two 1ms dag-node spans share one stack line summing to 2000µs.
	if !strings.Contains(out, "run;exec;dag-wave;dag-node 2000\n") {
		t.Errorf("sibling stacks not aggregated:\n%s", out)
	}
	if got := strings.Count(out, "dag-node"); got != 1 {
		t.Errorf("dag-node appears on %d lines, want 1:\n%s", got, out)
	}
}

func TestCriticalPathGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildWaveTrace().WriteCriticalPath(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.critpath.golden", buf.Bytes())
}

func TestCriticalPathPicksLatestChild(t *testing.T) {
	path := buildWaveTrace().CriticalPath()
	want := []string{"run", "exec", "dag-wave", "dag-node"}
	if len(path) != len(want) {
		t.Fatalf("path length = %d, want %d (%+v)", len(path), len(want), path)
	}
	var selfSum, total int64
	for i, n := range path {
		if n.Name != want[i] {
			t.Errorf("path[%d] = %s, want %s", i, n.Name, want[i])
		}
		selfSum += int64(n.Self)
	}
	// The node chosen at the wave level must be the later-finishing
	// sibling (start 6ms), not the first one.
	if got := path[3].Start.Milliseconds(); got != 6 {
		t.Errorf("critical path chose dag-node starting at %dms, want 6ms", got)
	}
	// Self times attribute disjoint shares of the root's wall time; on a
	// pure chain they can never exceed it.
	total = int64(path[0].Dur)
	if selfSum > total {
		t.Errorf("sum of self times %d exceeds root duration %d", selfSum, total)
	}
}

// Sequential siblings: the costliest statement sits mid-pipeline and the
// cheap last one finishes latest. The path must name the costly one.
func TestCriticalPathNamesCostliestStatement(t *testing.T) {
	tr := NewWithClock(fakeClock())
	run := tr.Root("run")     // start 1ms
	exec := run.Child("exec") // start 2ms
	s1 := exec.Child("stmt")  // start 3ms
	s1.End()                  // dur 1ms
	s2 := exec.Child("stmt")  // start 5ms
	for i := 0; i < 3; i++ {  // three 1ms fits: 6-7, 8-9, 10-11
		s2.Child("fit").End()
	}
	s2.End()                 // dur 7ms
	s3 := exec.Child("stmt") // start 13ms
	s3.End()                 // dur 1ms, ends at 14ms (latest)
	exec.End()
	run.End()
	path := tr.CriticalPath()
	want := []string{"run", "exec", "stmt", "fit"}
	if len(path) != len(want) {
		t.Fatalf("path length = %d, want %d (%+v)", len(path), len(want), path)
	}
	for i, n := range path {
		if n.Name != want[i] {
			t.Errorf("path[%d] = %s, want %s", i, n.Name, want[i])
		}
	}
	if got := path[2].Start.Milliseconds(); got != 5 {
		t.Errorf("critical path chose the stmt starting at %dms, want the 7ms one at 5ms", got)
	}
	// Equal-length fits tie: the latest-finishing one is chosen.
	if got := path[3].Start.Milliseconds(); got != 10 {
		t.Errorf("critical path chose the fit starting at %dms, want 10ms", got)
	}
}

func TestCriticalPathLiveTrace(t *testing.T) {
	tr := NewWithClock(fakeClock())
	run := tr.Root("run")
	gen := run.Child("generate")
	_ = gen // still open: the live path must mark it running
	path := tr.CriticalPath()
	if len(path) != 2 || path[1].Name != "generate" {
		t.Fatalf("live path = %+v, want run → generate", path)
	}
	if !path[1].Running {
		t.Error("open span not marked Running on the critical path")
	}
	if path[1].Dur <= 0 {
		t.Error("open span has no elapsed-so-far duration")
	}
	var buf bytes.Buffer
	if err := tr.WriteCriticalPath(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[running]") {
		t.Errorf("report missing running marker:\n%s", buf.String())
	}
}

func TestExportersNilAndEmpty(t *testing.T) {
	var nilTr *Tracer
	var buf bytes.Buffer
	if err := nilTr.WriteFolded(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteFolded: err=%v len=%d", err, buf.Len())
	}
	if err := nilTr.WriteCriticalPath(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteCriticalPath: err=%v len=%d", err, buf.Len())
	}
	if got := nilTr.CriticalPath(); got != nil {
		t.Errorf("nil CriticalPath = %+v, want nil", got)
	}
	empty := NewWithClock(fakeClock())
	if got := empty.CriticalPath(); got != nil {
		t.Errorf("empty CriticalPath = %+v, want nil", got)
	}
	buf.Reset()
	if err := empty.WriteCriticalPath(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no spans") {
		t.Errorf("empty report = %q", buf.String())
	}
}
