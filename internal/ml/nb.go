package ml

import (
	"math"
)

// NaiveBayes is a Gaussian naive-Bayes classifier.
type NaiveBayes struct {
	classes int
	prior   []float64
	mean    [][]float64
	vari    [][]float64
}

// NewNaiveBayes returns an empty Gaussian NB classifier.
func NewNaiveBayes() *NaiveBayes { return &NaiveBayes{} }

// FitClass estimates per-class feature means/variances and priors.
func (nb *NaiveBayes) FitClass(X [][]float64, y []int, classes int) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	nb.classes = classes
	d := len(X[0])
	nb.prior = make([]float64, classes)
	nb.mean = make([][]float64, classes)
	nb.vari = make([][]float64, classes)
	counts := make([]float64, classes)
	for c := 0; c < classes; c++ {
		nb.mean[c] = make([]float64, d)
		nb.vari[c] = make([]float64, d)
	}
	for i, row := range X {
		c := y[i]
		counts[c]++
		for j, v := range row {
			nb.mean[c][j] += v
		}
	}
	for c := 0; c < classes; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := range nb.mean[c] {
			nb.mean[c][j] /= counts[c]
		}
	}
	for i, row := range X {
		c := y[i]
		for j, v := range row {
			dv := v - nb.mean[c][j]
			nb.vari[c][j] += dv * dv
		}
	}
	n := float64(len(y))
	for c := 0; c < classes; c++ {
		nb.prior[c] = (counts[c] + 1) / (n + float64(classes))
		for j := range nb.vari[c] {
			if counts[c] > 0 {
				nb.vari[c][j] /= counts[c]
			}
			if nb.vari[c][j] < 1e-9 {
				nb.vari[c][j] = 1e-9
			}
		}
	}
	return nil
}

// PredictClass returns argmax-posterior class indices.
func (nb *NaiveBayes) PredictClass(X [][]float64) []int {
	return predictFromProba(nb.Proba(X))
}

// Proba returns normalized class posteriors.
func (nb *NaiveBayes) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		logp := make([]float64, nb.classes)
		for c := 0; c < nb.classes; c++ {
			lp := math.Log(nb.prior[c])
			for j, v := range row {
				m, va := nb.mean[c][j], nb.vari[c][j]
				lp += -0.5*math.Log(2*math.Pi*va) - (v-m)*(v-m)/(2*va)
			}
			logp[c] = lp
		}
		out[i] = softmaxLog(logp)
	}
	return out
}

// softmaxLog exponentiates log-probabilities stably and normalizes.
func softmaxLog(logp []float64) []float64 {
	maxv := logp[0]
	for _, v := range logp[1:] {
		if v > maxv {
			maxv = v
		}
	}
	out := make([]float64, len(logp))
	var sum float64
	for i, v := range logp {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	if sum == 0 {
		sum = 1
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
