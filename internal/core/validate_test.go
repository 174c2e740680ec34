package core

import (
	"strings"
	"sync"
	"testing"

	"catdb/internal/data"
	"catdb/internal/llm"
	"catdb/internal/obs"
)

// runSpans indexes one traced run's spans: the first span of each name
// under the run, plus whether any resume-debug span was recorded.
type runSpans struct {
	byName map[string]obs.SpanData
	resume bool
	order  map[string]int // start-order position of byName entries
}

func spansOf(tr *obs.Tracer) runSpans {
	rs := runSpans{byName: map[string]obs.SpanData{}, order: map[string]int{}}
	for i, s := range tr.Snapshot() {
		if s.Name == "resume-debug" {
			rs.resume = true
		}
		if _, seen := rs.byName[s.Name]; !seen {
			rs.byName[s.Name] = s
			rs.order[s.Name] = i
		}
	}
	return rs
}

// TestFinalValidateReusesStrictLoop pins the validate-once rule: the last
// prompt's strict debug loop already executed the program it returns, so
// final-validate reuses that run (reused=true) and executes nothing. A
// run without a full-data resume therefore executes one PipeScript
// program per failed attempt, one successful validation per prompt, and
// the final full-data exec — nothing more.
func TestFinalValidateReusesStrictLoop(t *testing.T) {
	ds := loadDS(t, "CMC", 0.3)
	for _, chains := range []int{1, 3} {
		checked := 0
		for _, model := range []string{"gpt-4o", "llama3.1-70b"} {
			for seed := int64(1); seed <= 3; seed++ {
				c, err := llm.New(model, 40+seed)
				if err != nil {
					t.Fatal(err)
				}
				r := NewRunner(c)
				r.Tracer = obs.New()
				r.Metrics = obs.NewRegistry()
				res, err := r.Run(ds, Options{Seed: seed, Chains: chains, NoRefine: true})
				if err != nil {
					t.Fatal(err)
				}
				sp := spansOf(r.Tracer)
				fv, ok := sp.byName["final-validate"]
				if !ok {
					t.Fatalf("β=%d %s seed %d: no final-validate span", chains, model, seed)
				}
				if res.Handcrafted {
					continue // a chain step fell back; the count below assumes none did
				}
				if reused, _ := fv.Attrs["reused"].(bool); !reused {
					t.Errorf("β=%d %s seed %d: final-validate reused=%v, want true", chains, model, seed, fv.Attrs["reused"])
				}
				if sp.resume {
					continue
				}
				prompts, _ := sp.byName["prompt-build"].Attrs["prompts"].(int64)
				if prompts == 0 {
					t.Fatalf("β=%d: prompt-build span has no prompts attr", chains)
				}
				got := r.Metrics.Counter("catdb_pipescript_execs_total").Value()
				if want := int64(res.Cost.Attempts) + prompts + 1; got != want {
					t.Errorf("β=%d %s seed %d: %d executions, want attempts %d + prompts %d + exec 1 = %d",
						chains, model, seed, got, res.Cost.Attempts, prompts, want)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("β=%d: no run without fallback or resume to check", chains)
		}
	}
}

// brokenClient answers every prompt with a program that parses but
// fails at run time, so no debug loop can ever succeed.
type brokenClient struct{}

func (brokenClient) Name() string         { return "broken" }
func (brokenClient) MaxPromptTokens() int { return 1 << 20 }
func (brokenClient) Complete(string) (llm.Response, error) {
	src := "pipeline \"broken\"\ntrain model=no_such_model\n"
	return llm.Response{Text: src, Usage: llm.Usage{PromptTokens: 1, CompletionTokens: 1, Calls: 1}}, nil
}
func (brokenClient) TotalUsage() llm.Usage { return llm.Usage{} }
func (brokenClient) ResetUsage()           {}

// TestFinalValidateRunsHandcraftedFallback exhausts the τ₂ budget: the
// handcrafted fallback has never run when the loop hands it back, so
// final-validate must execute it (reused=false) before the full-data
// exec.
func TestFinalValidateRunsHandcraftedFallback(t *testing.T) {
	ds := loadDS(t, "CMC", 0.3)
	r := NewRunner(brokenClient{})
	r.Tracer = obs.New()
	r.Metrics = obs.NewRegistry()
	res, err := r.Run(ds, Options{Seed: 1, MaxAttempts: 1, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Handcrafted || !strings.Contains(res.Pipeline, "-handcrafted") {
		t.Fatalf("want the handcrafted fallback, got handcrafted=%v pipeline:\n%s", res.Handcrafted, res.Pipeline)
	}
	sp := spansOf(r.Tracer)
	fv, ex := sp.byName["final-validate"], sp.byName["exec"]
	if reused, ok := fv.Attrs["reused"].(bool); !ok || reused {
		t.Fatalf("final-validate reused=%v, want false", fv.Attrs["reused"])
	}
	if sp.order["final-validate"] > sp.order["exec"] || fv.Start+fv.Dur > ex.Start {
		t.Fatal("final-validate must finish before exec starts")
	}
	// The failed attempt, the fallback's validation, and the exec.
	got := r.Metrics.Counter("catdb_pipescript_execs_total").Value()
	if want := int64(res.Cost.Attempts) + 2; res.Cost.Attempts != 1 || got != want {
		t.Fatalf("%d executions with %d attempts, want attempts + validation + exec = %d", got, res.Cost.Attempts, want)
	}
}

// splitClient answers every prompt about one dataset like brokenClient
// and passes the rest to the wrapped model.
type splitClient struct {
	llm.Client
	broken string
}

func (c splitClient) Complete(p string) (llm.Response, error) {
	if strings.Contains(p, "dataset="+c.broken+" ") {
		return brokenClient{}.Complete(p)
	}
	return c.Client.Complete(p)
}

// TestRunConcurrentSharedRunner calls Run concurrently on one Runner, as
// a batch front end serving several requests may: half the runs
// validate their generated program, the other half fall back to the
// handcrafted one. Whether final-validate may be skipped is per-run
// state: under the race detector a Runner field holding it fails here,
// and so does a fallback run that inherits another run's reused=true.
func TestRunConcurrentSharedRunner(t *testing.T) {
	c, err := llm.New("gpt-4o", 7)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(splitClient{Client: c, broken: "Wifi"})
	r.KB = nil // learned patches are not safe for concurrent runs
	// No Metrics: Run would shallow-copy the Runner to wrap its client,
	// and every run must share this very Runner.
	r.Tracer = obs.New()
	const runs = 6
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "CMC"
			if i%2 == 1 {
				name = "Wifi"
			}
			ds, err := data.Load(name, 0.2)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = r.Run(ds, Options{Seed: int64(i), MaxAttempts: 1 + i%2, NoRefine: true})
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if want := i%2 == 1; res.Handcrafted != want {
			t.Fatalf("run %d (%s): handcrafted=%v, want %v", i, res.Dataset, res.Handcrafted, want)
		}
	}
	// Each run leaves one final-validate span under its own run span;
	// reused=false exactly on the Wifi runs, which fell back.
	spans := r.Tracer.Snapshot()
	runOf := map[int]string{}
	for _, s := range spans {
		if s.Name == "run" {
			runOf[s.ID], _ = s.Attrs["dataset"].(string)
		}
	}
	finals := 0
	for _, s := range spans {
		if s.Name != "final-validate" {
			continue
		}
		finals++
		reused, _ := s.Attrs["reused"].(bool)
		if ds := runOf[s.Parent]; reused != (ds == "CMC") {
			t.Errorf("%s run: final-validate reused=%v", ds, reused)
		}
	}
	if finals != runs {
		t.Fatalf("%d final-validate spans, want %d", finals, runs)
	}
}
