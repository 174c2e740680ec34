package opsserver

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"catdb/internal/obs"
	"catdb/internal/obs/ledger"
)

// fakeClock steps 1ms per reading (the tracer serializes reads).
func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * time.Millisecond)
		n++
		return t
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("catdb_llm_calls_total", "model", "gpt-4o").Add(3)
	tr := obs.NewWithClock(fakeClock())
	run := tr.Root("run")
	gen := run.Child("generate")
	gen.SetStr("kind", "pipeline")
	gen.End()
	// run stays open: the live view must show it running.

	ledgerPath := filepath.Join(t.TempDir(), "runs.jsonl")
	lw, err := ledger.OpenWriter(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := lw.Append(ledger.Record{
			ConfigHash: ledger.ConfigHash("CMC", "gpt-4o"), Dataset: "CMC",
			Model: "gpt-4o", Seed: int64(i),
			StageSeconds: map[string]float64{"exec": 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := Start("127.0.0.1:0", Options{Registry: reg, Tracer: tr, LedgerPath: ledgerPath})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()

	if code, body := get(t, base+"/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code=%d body=%q", code, body)
	}
	if code, body := get(t, base+"/nope"); code != 404 {
		t.Errorf("unknown path: code=%d body=%q", code, body)
	}

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics code=%d", code)
	}
	if !strings.Contains(body, `catdb_llm_calls_total{model="gpt-4o"} 3`) {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body = get(t, base+"/api/spans")
	if code != 200 {
		t.Fatalf("/api/spans code=%d", code)
	}
	var roots []struct {
		Name     string         `json:"name"`
		Running  bool           `json:"running"`
		Attrs    map[string]any `json:"attrs"`
		Children []struct {
			Name  string         `json:"name"`
			DurNS int64          `json:"dur_ns"`
			Attrs map[string]any `json:"attrs"`
		} `json:"children"`
	}
	if err := json.Unmarshal([]byte(body), &roots); err != nil {
		t.Fatalf("/api/spans not JSON: %v\n%s", err, body)
	}
	if len(roots) != 1 || roots[0].Name != "run" || !roots[0].Running {
		t.Errorf("/api/spans root wrong: %+v", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "generate" ||
		roots[0].Children[0].Attrs["kind"] != "pipeline" {
		t.Errorf("/api/spans nesting wrong: %+v", roots)
	}

	code, body = get(t, base+"/api/flame")
	if code != 200 || !strings.Contains(body, "run;generate") {
		t.Errorf("/api/flame: code=%d body=%q", code, body)
	}
	code, body = get(t, base+"/api/critical-path")
	if code != 200 || !strings.Contains(body, "critical path:") || !strings.Contains(body, "[running]") {
		t.Errorf("/api/critical-path: code=%d body=%q", code, body)
	}

	code, body = get(t, base+"/api/runs")
	if code != 200 {
		t.Fatalf("/api/runs code=%d", code)
	}
	var records []ledger.Record
	if err := json.Unmarshal([]byte(body), &records); err != nil {
		t.Fatalf("/api/runs not JSON: %v\n%s", err, body)
	}
	if len(records) != 3 || records[0].Dataset != "CMC" {
		t.Errorf("/api/runs = %+v, want 3 CMC records", records)
	}
	_, body = get(t, base+"/api/runs?last=1")
	records = nil
	if err := json.Unmarshal([]byte(body), &records); err != nil || len(records) != 1 || records[0].Seed != 2 {
		t.Errorf("/api/runs?last=1 = %+v (err %v), want just the newest", records, err)
	}

	if code, _ := get(t, base+"/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ code=%d", code)
	}
}

// /api/runs?last=N is untrusted input: every value that is not a
// non-negative int must be a 400, never a silent full dump; valid values
// keep the N newest records, all of them when N exceeds the ledger.
func TestRunsLastHostileValues(t *testing.T) {
	ledgerPath := filepath.Join(t.TempDir(), "runs.jsonl")
	lw, err := ledger.OpenWriter(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := lw.Append(ledger.Record{Dataset: "CMC", Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(Options{LedgerPath: ledgerPath})

	for _, tc := range []struct {
		query string
		code  int
		seeds []int64 // returned records' seeds, for 200s
	}{
		{"", 200, []int64{0, 1, 2}},
		{"?last=-1", 400, nil},
		{"?last=abc", 400, nil},
		{"?last=1.5", 400, nil},
		{"?last=99999999999999999999", 400, nil},
		{"?last=", 400, nil},
		{"?last=%201", 400, nil},
		{"?last=0", 200, []int64{}},
		{"?last=1", 200, []int64{2}},
		{"?last=2", 200, []int64{1, 2}},
		{"?last=3", 200, []int64{0, 1, 2}},
		{"?last=" + strconv.Itoa(math.MaxInt), 200, []int64{0, 1, 2}},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/runs"+tc.query, nil))
		if rec.Code != tc.code {
			t.Errorf("%q: code=%d, want %d (body %q)", tc.query, rec.Code, tc.code, rec.Body.String())
			continue
		}
		if tc.code != 200 {
			if !strings.Contains(rec.Body.String(), "last must be a non-negative integer") {
				t.Errorf("%q: 400 body %q does not explain the rejection", tc.query, rec.Body.String())
			}
			continue
		}
		var records []ledger.Record
		if err := json.Unmarshal(rec.Body.Bytes(), &records); err != nil {
			t.Fatalf("%q: not JSON: %v\n%s", tc.query, err, rec.Body.String())
		}
		if records == nil {
			t.Errorf("%q: got null, want a JSON array", tc.query)
		}
		seeds := make([]int64, len(records))
		for i, r := range records {
			seeds[i] = r.Seed
		}
		if fmt.Sprint(seeds) != fmt.Sprint(tc.seeds) {
			t.Errorf("%q: seeds %v, want %v", tc.query, seeds, tc.seeds)
		}
	}
}

func TestServerDisabledEndpoints(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/api/spans", "/api/flame", "/api/critical-path", "/api/runs"} {
		if code, _ := get(t, srv.URL()+path); code != 404 {
			t.Errorf("%s with nothing wired: code=%d, want 404", path, code)
		}
	}
}

func TestServerNilAndClose(t *testing.T) {
	var s *Server
	if s.Addr() != "" || s.URL() != "" {
		t.Error("nil server has an address")
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	srv, err := Start("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get(srv.URL() + "/"); err == nil {
		t.Error("server still serving after Close")
	}
}

// TestScrapeUnderLoad hammers /metrics and /api/spans while writers
// mutate the registry and tracer — the race-lane proof that scraping a
// live run is safe.
func TestScrapeUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.New()
	srv, err := Start("127.0.0.1:0", Options{Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			root := tr.Root(fmt.Sprintf("writer-%d", id))
			for j := 0; ; j++ {
				select {
				case <-stop:
					root.End()
					return
				default:
				}
				reg.Counter("catdb_load_total", "writer", fmt.Sprint(id)).Inc()
				reg.Histogram("catdb_load_seconds", obs.DefBuckets).Observe(float64(j % 10))
				// Cap the span count: unbounded spans make every scrape
				// serialize a huge tree and the test crawls.
				if j < 200 {
					sp := root.Child("op")
					sp.SetInt("j", int64(j))
					sp.End()
				}
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				for _, path := range []string{"/metrics", "/api/spans"} {
					resp, err := http.Get(srv.URL() + path)
					if err != nil {
						t.Errorf("%s under load: %v", path, err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("%s under load: code=%d", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
