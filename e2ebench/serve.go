package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math"
	"math/rand"
	"time"

	"catdb"
)

// serveSource is the pipeline PipGen generates for NYC with gpt-4o: the
// same preparation steps as prep-large and an 80-tree forest, so serving
// runs the recorded transforms and forest inference.
//
//go:embed pipelines/nyc_serve.pipe
var serveSource string

const (
	serveScale = 0.2 // 8000 NYC rows: 5600 to fit, 2400 held out
	batchRows  = 4096
	// singlesPerBatch single-row requests go around each batch request.
	singlesPerBatch = 16
)

type serve struct {
	fp       *catdb.FittedPipeline
	held     *catdb.Table // held-out rows without the target column
	truth    []float64    // held-out targets
	ref      []float64    // Predict over the whole held-out table, from setup
	wantRMSE float64      // FitPipeline's held-out RMSE
	verified bool
	rng      *rand.Rand
	batch    int
}

func setupServe(cfg config) (workload, error) {
	scale, batch := serveScale, batchRows
	if cfg.tiny {
		scale, batch = 0.02, 64
	}
	ds, err := catdb.LoadDataset("NYC", scale)
	if err != nil {
		return nil, err
	}
	train, test := ds.PrimaryTable().Split(0.7, cfg.seed)
	res, fitted, err := catdb.FitPipeline(serveSource, train, test, "target", catdb.Regression, cfg.seed)
	if err != nil {
		return nil, err
	}
	var art bytes.Buffer
	if err := fitted.Save(&art); err != nil {
		return nil, err
	}
	fp, err := catdb.LoadFittedPipeline(&art)
	if err != nil {
		return nil, err
	}
	truth := make([]float64, test.NumRows())
	tcol := test.Col("target")
	for i := range truth {
		truth[i] = tcol.Num(i)
	}
	held := test.Clone()
	held.DropColumn("target")
	pred, err := catdb.Predict(fp, held)
	if err != nil {
		return nil, err
	}
	return &serve{fp: fp, held: held, truth: truth, ref: pred.Values, wantRMSE: res.TestRMSE,
		rng: rand.New(rand.NewSource(cfg.seed)), batch: batch}, nil
}

// round sends one batch request and singlesPerBatch single-row requests
// in a seeded order. The first round also scores the whole held-out
// table once.
func (w *serve) round(ph *phase) {
	w.fp.Metrics = nil
	if ph.probe != nil {
		w.fp.Metrics = ph.probe.metrics
	}
	if !w.verified {
		w.verified = true
		w.checkHeldOut(ph)
	}
	at := w.rng.Intn(singlesPerBatch + 1)
	for k := 0; k <= singlesPerBatch; k++ {
		n := 1
		if k == at {
			n = w.batch
		}
		rows := make([]int, n)
		for i := range rows {
			rows[i] = w.rng.Intn(w.held.NumRows())
		}
		w.request(ph, rows)
	}
}

func (w *serve) request(ph *phase, rows []int) {
	ph.attempted++
	req := w.held.SelectRows(rows)
	var span *catdb.Span
	if ph.probe != nil {
		span = ph.probe.tracer.Root("serve.request")
		span.SetInt("rows", int64(len(rows)))
	}
	t0 := time.Now()
	pred, err := catdb.Predict(w.fp, req)
	secs := time.Since(t0).Seconds()
	span.End()
	if err != nil {
		ph.fail("serve %d-row request: %v", len(rows), err)
		return
	}
	if pred.Rows != len(rows) || len(pred.Values) != len(rows) {
		ph.fail("serve %d-row request: %d predictions", len(rows), len(pred.Values))
		return
	}
	for i, r := range rows {
		if math.Float64bits(pred.Values[i]) != math.Float64bits(w.ref[r]) {
			ph.fail("serve: held-out row %d predicted %v in a %d-row request, %v over the whole table",
				r, pred.Values[i], len(rows), w.ref[r])
			return
		}
	}
	if len(rows) > 1 {
		ph.time("batch", secs)
		ph.add("batch_rows", float64(len(rows)))
		return
	}
	ph.time("op", secs)
	if ph.probe != nil {
		// The same request through the transform half alone, outside the
		// timed Predict.
		t1 := time.Now()
		if _, err := w.fp.Transform(req); err != nil {
			ph.fail("serve transform: %v", err)
			return
		}
		ph.time("transform", time.Since(t1).Seconds())
	}
}

// checkHeldOut scores the whole held-out table again and holds it to the
// serving contract: the artifact's predictions are the ones FitPipeline
// scored, so their RMSE against the held-out targets is FitPipeline's.
func (w *serve) checkHeldOut(ph *phase) {
	ph.attempted++
	pred, err := catdb.Predict(w.fp, w.held)
	if err != nil {
		ph.fail("serve held-out table: %v", err)
		return
	}
	for i, v := range pred.Values {
		if math.Float64bits(v) != math.Float64bits(w.ref[i]) {
			ph.fail("serve held-out row %d: %v, setup predicted %v", i, v, w.ref[i])
			return
		}
	}
	if got := rmse(pred.Values, w.truth); math.Abs(got-w.wantRMSE) > 1e-9*math.Max(1, w.wantRMSE) {
		ph.fail("serve held-out RMSE %v, FitPipeline scored %v", got, w.wantRMSE)
	}
}

func rmse(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

func (w *serve) endToEnd(ph *phase) []metric {
	singles := ph.lat["op"]
	return []metric{
		{"op_s_p50", "s", median(singles), fmt.Sprintf("n=%d single-row requests", len(singles))},
		{"rows_per_s", "rows/s", ratio(ph.total["batch_rows"], sum(ph.lat["batch"])),
			fmt.Sprintf("%.0f rows in batch requests / %.3f s", ph.total["batch_rows"], sum(ph.lat["batch"]))},
		{"row_us_p50", "us", median(singles) * 1e6, fmt.Sprintf("n=%d single-row requests", len(singles))},
		tail("row_us", singles, 99, 1e6, "us"),
		{"batch_s_p50", "s", median(ph.lat["batch"]), fmt.Sprintf("n=%d %d-row requests", len(ph.lat["batch"]), w.batch)},
	}
}

func (w *serve) perLayer(ph *phase) []metric {
	tr := ph.lat["transform"]
	return []metric{
		{"pipescript.transform_us_p50", "us", median(tr) * 1e6,
			fmt.Sprintf("median FittedPipeline.Transform, n=%d single-row requests", len(tr))},
	}
}
