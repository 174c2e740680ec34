package ml

import (
	"math"
	"slices"
)

// Accuracy returns the fraction of exact matches between two label slices.
func Accuracy(pred, truth []int) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	hit := 0
	for i := range pred {
		if pred[i] == truth[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(pred))
}

// AccuracyStrings returns exact-match accuracy over string labels (used
// when predictions and truth carry surface-form class names, so dirty
// duplicate labels genuinely hurt, as in the EU-IT experiment).
func AccuracyStrings(pred, truth []string) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	hit := 0
	for i := range pred {
		if pred[i] == truth[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(pred))
}

// BinaryAUC computes ROC AUC for binary labels given positive-class scores.
func BinaryAUC(score []float64, truth []int) float64 {
	type pair struct {
		s float64
		y int
	}
	ps := make([]pair, len(score))
	pos, neg := 0, 0
	for i := range score {
		ps[i] = pair{score[i], truth[i]}
		if truth[i] == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	slices.SortFunc(ps, func(a, b pair) int { return cmpLess(a.s, b.s) })
	// Rank-sum (Mann-Whitney U) with tie handling via average ranks.
	ranks := make([]float64, len(ps))
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		i = j
	}
	var sumPos float64
	for i, p := range ps {
		if p.y == 1 {
			sumPos += ranks[i]
		}
	}
	u := sumPos - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg))
}

// MacroAUC computes one-vs-rest AUC averaged over classes from a
// probability matrix (n×classes). Classes absent from truth are skipped.
func MacroAUC(proba [][]float64, truth []int, classes int) float64 {
	if len(proba) == 0 {
		return 0.5
	}
	var sum float64
	var used int
	for c := 0; c < classes; c++ {
		score := make([]float64, len(proba))
		bin := make([]int, len(truth))
		pos := 0
		for i := range proba {
			score[i] = proba[i][c]
			if truth[i] == c {
				bin[i] = 1
				pos++
			}
		}
		if pos == 0 || pos == len(truth) {
			continue
		}
		sum += BinaryAUC(score, bin)
		used++
	}
	if used == 0 {
		return 0.5
	}
	return sum / float64(used)
}

// MacroF1 averages per-class F1 scores.
func MacroF1(pred, truth []int, classes int) float64 {
	if len(pred) == 0 {
		return 0
	}
	var sum float64
	var used int
	for c := 0; c < classes; c++ {
		var tp, fp, fn float64
		for i := range pred {
			switch {
			case pred[i] == c && truth[i] == c:
				tp++
			case pred[i] == c && truth[i] != c:
				fp++
			case pred[i] != c && truth[i] == c:
				fn++
			}
		}
		if tp+fn == 0 {
			continue
		}
		used++
		if tp == 0 {
			continue
		}
		prec := tp / (tp + fp)
		rec := tp / (tp + fn)
		sum += 2 * prec * rec / (prec + rec)
	}
	if used == 0 {
		return 0
	}
	return sum / float64(used)
}

// LogLoss is the mean negative log-likelihood of the truth under proba.
func LogLoss(proba [][]float64, truth []int) float64 {
	if len(proba) == 0 {
		return 0
	}
	var sum float64
	for i, row := range proba {
		p := 1e-15
		if truth[i] < len(row) {
			p = math.Max(row[truth[i]], 1e-15)
		}
		sum -= math.Log(p)
	}
	return sum / float64(len(proba))
}

// R2 is the coefficient of determination.
func R2(pred, truth []float64) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	var mean float64
	for _, v := range truth {
		mean += v
	}
	mean /= float64(len(truth))
	var ssRes, ssTot float64
	for i := range truth {
		d := truth[i] - pred[i]
		ssRes += d * d
		m := truth[i] - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// RMSE is the root mean squared error.
func RMSE(pred, truth []float64) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return math.NaN()
	}
	var sum float64
	for i := range pred {
		d := pred[i] - truth[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred)))
}
