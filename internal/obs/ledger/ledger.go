// Package ledger is the persistent cross-run memory of the repo: an
// append-only JSONL file with one record per completed pipeline run
// (config hash, dataset, model, stage seconds, token counts, fix
// counts, final metric snapshot). Processes append through a Writer;
// the ops server's /api/runs endpoint and `benchjson -compare` read the
// file back to answer "how did this exact configuration run last time"
// across process lifetimes — the cross-run baseline the committed
// BENCH_*.json files otherwise fake by hand.
//
// Like internal/obs, the package is a leaf: it depends on nothing
// inside the repo, so every layer (core, bench, the CLIs, the ops
// server) can record into it.
package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"time"
)

// Record is one completed run. StageSeconds keys are the Table 8 stage
// names (profile, refine, generate, exec); Tokens keys are the cost
// directions (prompt, completion, error_prompt, error_completion);
// Metrics holds the final evaluation snapshot (test_acc, test_auc,
// test_r2, ...). All maps marshal with sorted keys, so records are
// deterministic given deterministic inputs.
type Record struct {
	// Time is the RFC3339 append timestamp — informational only, never
	// part of comparison identity. Writer.Append stamps it when empty.
	Time         string             `json:"time,omitempty"`
	ConfigHash   string             `json:"config_hash"`
	Dataset      string             `json:"dataset"`
	Model        string             `json:"model"`
	Variant      string             `json:"variant,omitempty"`
	Seed         int64              `json:"seed"`
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
	Tokens       map[string]int     `json:"tokens,omitempty"`
	LLMCalls     int                `json:"llm_calls,omitempty"`
	Attempts     int                `json:"attempts,omitempty"`
	KBFixes      int                `json:"kb_fixes,omitempty"`
	LLMFixes     int                `json:"llm_fixes,omitempty"`
	Handcrafted  bool               `json:"handcrafted,omitempty"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

// Key is the comparison identity of a record: runs compare only within
// the same (config hash, dataset, model) group.
func (r Record) Key() string {
	return r.ConfigHash + "|" + r.Dataset + "|" + r.Model
}

// TotalSeconds sums the stage seconds.
func (r Record) TotalSeconds() float64 {
	t := 0.0
	for _, s := range r.StageSeconds {
		t += s
	}
	return t
}

// TotalTokens sums the token directions.
func (r Record) TotalTokens() int {
	t := 0
	for _, n := range r.Tokens {
		t += n
	}
	return t
}

// ConfigHash hashes the identifying parts of a run configuration into a
// short stable hex string (FNV-64a over the NUL-joined parts).
func ConfigHash(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Writer appends records to a ledger file. It is safe for concurrent
// use (the bench harness appends from pool workers); each record is one
// '\n'-terminated JSON line written in a single Write call on an
// O_APPEND descriptor. A nil *Writer is a valid disabled writer.
type Writer struct {
	mu   sync.Mutex
	f    *os.File
	path string
	err  error // first append failure, reported by Close
	now  func() time.Time
}

// OpenWriter opens (creating if needed) the ledger file for appending.
func OpenWriter(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", path, err)
	}
	return &Writer{f: f, path: path, now: time.Now}, nil
}

// Path returns the ledger file path ("" on nil).
func (w *Writer) Path() string {
	if w == nil {
		return ""
	}
	return w.path
}

// Append writes one record as a JSON line, stamping Time when empty.
// The first failure is also retained and re-reported by Close, so
// callers appending from hot paths may ignore the per-call error.
func (w *Writer) Append(rec Record) error {
	if w == nil {
		return nil
	}
	if rec.Time == "" {
		rec.Time = w.now().UTC().Format(time.RFC3339)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return w.keep(fmt.Errorf("ledger: marshal: %w", err))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		return w.keepLocked(fmt.Errorf("ledger: append %s: %w", w.path, err))
	}
	return nil
}

func (w *Writer) keep(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.keepLocked(err)
}

func (w *Writer) keepLocked(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// Close closes the file and returns the first append error, if any.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	cerr := w.f.Close()
	if w.err != nil {
		return w.err
	}
	return cerr
}

// Read parses ledger records from a JSONL stream in file order. Blank
// lines are skipped; a malformed line fails with its line number so a
// corrupt ledger is diagnosable.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("ledger: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: read: %w", err)
	}
	return out, nil
}

// ReadFile reads a whole ledger file. A missing file is an empty
// ledger, not an error — the first run of a process has no history.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()
	return Read(f)
}
