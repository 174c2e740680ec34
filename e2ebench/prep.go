package main

import (
	"bytes"
	_ "embed"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"time"

	"catdb"
)

// prepSource copies the pipeline PipGen generates for NYC, with a single
// decision tree, so the op's cost is the preparation steps and the
// column statistics they ask for rather than a forest.
//
//go:embed pipelines/nyc_prep.pipe
var prepSource string

// prepScale makes the NYC analogue 100k rows (40k at scale 1).
const prepScale = 2.5

type prepLarge struct {
	seed     int64
	src      *catdb.Table // the rows in CSV order
	csv      []byte
	artifact []byte // the first op's saved artifact
	score    float64
}

func setupPrepLarge(cfg config) (workload, error) {
	scale := prepScale
	if cfg.tiny {
		scale = 0.05
	}
	ds, err := catdb.LoadDataset("NYC", scale)
	if err != nil {
		return nil, err
	}
	t := ds.PrimaryTable()
	src := t.SelectRows(rand.New(rand.NewSource(cfg.seed)).Perm(t.NumRows()))
	raw, err := renderCSV(src)
	if err != nil {
		return nil, err
	}
	return &prepLarge{seed: cfg.seed, src: src, csv: raw}, nil
}

// renderCSV writes a table the way a user's CSV export would: a header,
// then one record per row, missing cells empty.
func renderCSV(t *catdb.Table) ([]byte, error) {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	if err := w.Write(t.ColumnNames()); err != nil {
		return nil, err
	}
	row := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for c, col := range t.Cols {
			row[c] = col.ValueString(r)
		}
		if err := w.Write(row); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return b.Bytes(), w.Error()
}

// round is one op: ingest the CSV, split, fit the fixed pipeline.
func (w *prepLarge) round(ph *phase) {
	ph.attempted++
	var opts catdb.ExecOptions
	var span *catdb.Span
	if ph.probe != nil {
		span = ph.probe.tracer.Root("prep-large.op")
		opts.Metrics = ph.probe.metrics
	}
	t0 := time.Now()
	ingestSpan := span.Child("ingest")
	ds, err := catdb.ReadCSV(bytes.NewReader(w.csv), "NYC", "target", catdb.Regression)
	ingestSpan.End()
	ingest := time.Since(t0).Seconds()
	if err != nil {
		span.End()
		ph.fail("prep-large ingest: %v", err)
		return
	}
	train, test := ds.PrimaryTable().Split(0.7, w.seed)
	opts.TraceSpan = span.Child("fit")
	res, fp, err := catdb.FitPipelineWith(prepSource, train, test, "target", catdb.Regression, w.seed, opts)
	opts.TraceSpan.End()
	secs := time.Since(t0).Seconds()
	span.End()
	if err != nil {
		ph.fail("prep-large fit: %v", err)
		return
	}
	if msg := w.check(ds.PrimaryTable(), res, fp); msg != "" {
		ph.fail("prep-large: %s", msg)
		return
	}
	ph.time("op", secs)
	ph.time("ingest", ingest)
	ph.add("rows", float64(w.src.NumRows()))
}

// check holds an op to two stated contracts: ReadCSV round-trips the
// table the CSV was rendered from, and a fit is deterministic, so every
// op saves the first op's artifact byte for byte and scores the same.
func (w *prepLarge) check(got *catdb.Table, res *catdb.PipelineResult, fp *catdb.FittedPipeline) string {
	if msg := sameCells(w.src, got); msg != "" {
		return "ingest round trip: " + msg
	}
	score := res.Primary()
	if math.IsNaN(score) || score < 0 || score > 100 {
		return fmt.Sprintf("score %v outside [0, 100]", score)
	}
	var b bytes.Buffer
	if err := fp.Save(&b); err != nil {
		return fmt.Sprintf("save artifact: %v", err)
	}
	if w.artifact == nil {
		w.artifact, w.score = b.Bytes(), score
		return ""
	}
	if !bytes.Equal(b.Bytes(), w.artifact) {
		return "artifact differs from the first op's"
	}
	if math.Float64bits(score) != math.Float64bits(w.score) {
		return fmt.Sprintf("score %v, first op %v", score, w.score)
	}
	return ""
}

// sameCells compares two tables cell by cell through their string form.
func sameCells(want, got *catdb.Table) string {
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c, wc := range want.Cols {
		gc := got.Cols[c]
		if gc.Name != wc.Name {
			return fmt.Sprintf("column %d is %q, want %q", c, gc.Name, wc.Name)
		}
		for r := 0; r < want.NumRows(); r++ {
			if gc.IsMissing(r) != wc.IsMissing(r) || gc.ValueString(r) != wc.ValueString(r) {
				return fmt.Sprintf("cell (%d, %q) is %q, want %q", r, wc.Name, gc.ValueString(r), wc.ValueString(r))
			}
		}
	}
	return ""
}

func (w *prepLarge) endToEnd(ph *phase) []metric {
	return []metric{
		{"op_s_p50", "s", median(ph.lat["op"]), fmt.Sprintf("n=%d ingest+fit ops", len(ph.lat["op"]))},
		{"rows_per_s", "rows/s", ratio(ph.total["rows"], sum(ph.lat["op"])),
			fmt.Sprintf("%.0f rows ingested and fitted / %.3f s", ph.total["rows"], sum(ph.lat["op"]))},
		tail("op_s", ph.lat["op"], 90, 1, "s"),
	}
}

func (w *prepLarge) perLayer(ph *phase) []metric {
	ops := float64(len(ph.lat["op"]))
	mb := float64(len(w.csv)) / 1e6
	ingest := median(ph.lat["ingest"])
	execs := float64(ph.probe.metrics.Counter("catdb_pipescript_execs_total").Value())
	return []metric{
		{"data.ingest_s", "s", ingest, fmt.Sprintf("median ReadCSV, n=%d", len(ph.lat["ingest"]))},
		{"data.ingest_mb_per_s", "MB/s", ratio(mb, ingest),
			fmt.Sprintf("%.2f MB CSV / %.4f s median ingest", mb, ingest)},
		{"pipescript.execs_per_op", "count", ratio(execs, ops),
			fmt.Sprintf("%.0f catdb_pipescript_execs_total / %.0f ops", execs, ops)},
	}
}
