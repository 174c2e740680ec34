package core

import (
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"catdb/internal/errkb"
	"catdb/internal/llm"
	"catdb/internal/obs"
	"catdb/internal/obs/opsserver"
)

// TestTracedRunBitIdentical pins the observability contract: attaching a
// tracer and metrics registry to a runner must not change anything about
// the run's outcome except the wall-clock duration fields. The
// error-prone llama personality exercises the debug loop (and its
// per-attempt spans and fix counters) on both sides of the comparison.
func TestTracedRunBitIdentical(t *testing.T) {
	ds := loadDS(t, "CMC", 0.5)
	run := func(traced bool) *Result {
		c, err := llm.New("llama3.1-70b", 11)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(c)
		if traced {
			r.Tracer = obs.New()
			r.Metrics = obs.NewRegistry()
		}
		res, err := r.Run(ds, Options{Seed: 11, NoRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		res.ProfileTime, res.RefineTime, res.GenTime, res.ExecTime = 0, 0, 0, 0
		return res
	}
	plain, traced := run(false), run(true)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("traced run diverged from untraced:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestOpsServerRunBitIdentical extends the bit-identity contract to the
// full live ops plane: one arm runs bare, the other runs with tracer,
// metrics, a sampling runtime collector, AND an attached debug HTTP
// server being actively scraped (/metrics, /api/spans,
// /api/critical-path) while the run is in flight, so the executor's
// per-statement span emission is exercised under concurrent snapshots.
// Everything except wall-clock durations must match exactly.
func TestOpsServerRunBitIdentical(t *testing.T) {
	ds := loadDS(t, "CMC", 0.5)
	run := func(ops bool) *Result {
		c, err := llm.New("llama3.1-70b", 11)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(c)
		var cleanup func()
		if ops {
			r.Tracer = obs.New()
			r.Metrics = obs.NewRegistry()
			srv, serr := opsserver.Start("127.0.0.1:0", opsserver.Options{Registry: r.Metrics, Tracer: r.Tracer})
			if serr != nil {
				t.Fatal(serr)
			}
			col := opsserver.NewCollector(r.Metrics)
			col.Start(time.Millisecond)
			stop := make(chan struct{})
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, path := range []string{"/metrics", "/api/spans", "/api/critical-path"} {
						resp, gerr := http.Get(srv.URL() + path)
						if gerr != nil {
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}()
			cleanup = func() {
				close(stop)
				<-scraped
				col.Stop()
				_ = srv.Close()
			}
		}
		res, err := r.Run(ds, Options{Seed: 11, NoRefine: true})
		if cleanup != nil {
			cleanup()
		}
		if err != nil {
			t.Fatal(err)
		}
		res.ProfileTime, res.RefineTime, res.GenTime, res.ExecTime = 0, 0, 0, 0
		return res
	}
	plain, served := run(false), run(true)
	if !reflect.DeepEqual(plain, served) {
		t.Fatalf("run with live ops plane diverged from bare run:\nplain:  %+v\nserved: %+v", plain, served)
	}
}

// TestTracedRunRecordsSpansAndMetrics sanity-checks that an instrumented
// run actually produces a span tree rooted at "run" — with per-statement
// "stmt" spans (op, line) under "exec" — and the headline counters, so
// the wiring cannot silently regress to all no-ops.
func TestTracedRunRecordsSpansAndMetrics(t *testing.T) {
	ds := loadDS(t, "Wifi", 0.5)
	c, err := llm.New("gemini-1.5-pro", 12)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c)
	r.Tracer = obs.New()
	r.Metrics = obs.NewRegistry()
	if _, err := r.Run(ds, Options{Seed: 12, NoRefine: true}); err != nil {
		t.Fatal(err)
	}
	spans := r.Tracer.Snapshot()
	if len(spans) == 0 || spans[0].Name != "run" {
		t.Fatalf("want a span tree rooted at run, got %d spans", len(spans))
	}
	names := map[string]bool{}
	byID := map[int]obs.SpanData{}
	for _, s := range spans {
		names[s.Name] = true
		byID[s.ID] = s
	}
	for _, want := range []string{"profile", "prompt-build", "generate", "final-validate", "exec", "stmt"} {
		if !names[want] {
			t.Errorf("missing %q span in %v", want, names)
		}
	}
	stmtsUnderExec := 0
	for _, s := range spans {
		if s.Name != "stmt" || byID[s.Parent].Name != "exec" {
			continue
		}
		stmtsUnderExec++
		if op, _ := s.Attrs["op"].(string); op == "" {
			t.Errorf("stmt span %d has no op attribute: %v", s.ID, s.Attrs)
		}
		if line, _ := s.Attrs["line"].(int64); line <= 0 {
			t.Errorf("stmt span %d has no line attribute: %v", s.ID, s.Attrs)
		}
	}
	if stmtsUnderExec == 0 {
		t.Error("no stmt spans recorded under exec")
	}
	if got := r.Metrics.Counter("catdb_llm_calls_total", "model", "gemini-1.5-pro").Value(); got == 0 {
		t.Error("catdb_llm_calls_total not recorded")
	}
	if got := r.Metrics.Counter("catdb_gen_calls_total", "kind", "pipeline").Value(); got == 0 {
		t.Error("catdb_gen_calls_total{kind=pipeline} not recorded")
	}
	if got := r.Metrics.Histogram("catdb_stage_seconds", obs.DefBuckets, "stage", "exec").Count(); got == 0 {
		t.Error("catdb_stage_seconds{stage=exec} not recorded")
	}
}

// TestDebugLoopTraceFixedSemantics drives the error-prone llama client
// through runs that hit the debug loop and checks the recorded traces
// carry meaningful Fixed values: a fix is only credited when the next
// execution succeeded or surfaced a different error signature, so a
// store full of unconditional Fixed=true can no longer happen.
func TestDebugLoopTraceFixedSemantics(t *testing.T) {
	ds := loadDS(t, "CMC", 0.5)
	c, _ := llm.New("llama3.1-70b", 5)
	r := NewRunner(c)
	r.Traces = errkb.NewTraceStore()
	// Several seeds so traces accumulate (the Table 2 setup).
	for seed := int64(0); seed < 8; seed++ {
		if _, err := r.Run(ds, Options{Seed: seed, NoRefine: true}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Traces.Len() == 0 {
		t.Skip("no error traces produced at these seeds")
	}
	fixed := 0
	for _, tr := range r.Traces.Traces {
		if tr.FixedBy == "" {
			t.Fatalf("trace without FixedBy: %+v", tr)
		}
		if tr.Fixed {
			fixed++
		}
	}
	// Successful runs end their error chains, so at least one trace must
	// be credited as fixed; and with a 42%-fault client not every attempt
	// clears its error, so blanket Fixed=true would be a regression.
	if fixed == 0 {
		t.Fatal("no trace marked fixed across 8 runs that all completed")
	}
	if fixed == len(r.Traces.Traces) && len(r.Traces.Traces) > 3 {
		t.Fatalf("all %d traces marked fixed — Fixed is not being derived from outcomes", fixed)
	}
}

// TestTracedRunRecordsFitSpan checks the model-fit span: the final
// exec's train statement parents one "fit" span naming the model, the
// training rows and features, and the split backend the fit resolved.
func TestTracedRunRecordsFitSpan(t *testing.T) {
	ds := loadDS(t, "Wifi", 0.5)
	c, err := llm.New("gemini-1.5-pro", 12)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c)
	r.Tracer = obs.New()
	res, err := r.Run(ds, Options{Seed: 12, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	spans := r.Tracer.Snapshot()
	byID := map[int]obs.SpanData{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	fits := 0
	for _, s := range spans {
		if s.Name != "fit" {
			continue
		}
		stmt := byID[s.Parent]
		if op, _ := stmt.Attrs["op"].(string); stmt.Name != "stmt" || op != "train" || byID[stmt.Parent].Name != "exec" {
			continue
		}
		fits++
		if model, _ := s.Attrs["model"].(string); model != res.Exec.ModelName {
			t.Errorf("fit model %q, want %q", model, res.Exec.ModelName)
		}
		if rows, _ := s.Attrs["rows"].(int64); rows != int64(res.Exec.TrainRows) {
			t.Errorf("fit rows %d, want %d", rows, res.Exec.TrainRows)
		}
		if feats, _ := s.Attrs["features"].(int64); feats != int64(res.Exec.Features) {
			t.Errorf("fit features %d, want %d", feats, res.Exec.Features)
		}
		if b, _ := s.Attrs["backend"].(string); b != "exact" && b != "hist" {
			t.Errorf("fit backend %q, want exact or hist", b)
		}
	}
	if fits != 1 {
		t.Fatalf("%d fit spans under exec's train statement, want 1", fits)
	}
}
