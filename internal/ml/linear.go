package ml

import (
	"math"
	"math/rand"
)

// LinearConfig tunes (regularized) linear and logistic models trained with
// mini-batch gradient descent on standardized inputs.
type LinearConfig struct {
	Epochs       int     // default 100
	LearningRate float64 // default 0.1
	L2           float64 // ridge penalty; 0 = plain least squares
	Seed         int64
}

func (c LinearConfig) withDefaults() LinearConfig {
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	return c
}

// scaler standardizes features to zero mean / unit variance internally so
// gradient descent behaves on unscaled inputs.
type scaler struct {
	mean, std []float64
}

func fitScaler(X [][]float64) *scaler {
	d := len(X[0])
	s := &scaler{mean: make([]float64, d), std: make([]float64, d)}
	n := float64(len(X))
	for _, row := range X {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] < 1e-12 {
			s.std[j] = 1
		}
	}
	return s
}

// apply standardizes one row. Rows are exactly as wide as the scaler:
// fits scale the rows they were fitted on, every scoring caller builds
// rows in the fitted feature order, and FittedModel.Model rejects a
// loaded scaler of any other width.
func (s *scaler) apply(row []float64) []float64 {
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = (v - s.mean[j]) / s.std[j]
	}
	return out
}

// Linear is a least-squares (optionally ridge) regressor.
type Linear struct {
	Config LinearConfig
	w      []float64
	b      float64
	sc     *scaler
	yMean  float64
	yStd   float64
}

// NewLinear returns a linear regressor.
func NewLinear(cfg LinearConfig) *Linear { return &Linear{Config: cfg.withDefaults()} }

// Fit trains by full-batch gradient descent on standardized features and
// target.
func (l *Linear) Fit(X [][]float64, y []float64) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	l.sc = fitScaler(X)
	n := len(y)
	var sum float64
	for _, v := range y {
		sum += v
	}
	l.yMean = sum / float64(n)
	var sq float64
	for _, v := range y {
		d := v - l.yMean
		sq += d * d
	}
	l.yStd = math.Sqrt(sq / float64(n))
	if l.yStd < 1e-12 {
		l.yStd = 1
	}
	d := len(X[0])
	Xs := make([][]float64, n)
	for i, row := range X {
		Xs[i] = l.sc.apply(row)
	}
	ys := make([]float64, n)
	for i, v := range y {
		ys[i] = (v - l.yMean) / l.yStd
	}
	l.w = make([]float64, d)
	l.b = 0
	lr := l.Config.LearningRate
	for e := 0; e < l.Config.Epochs; e++ {
		gw := make([]float64, d)
		gb := 0.0
		for i, row := range Xs {
			pred := l.b
			for j, v := range row {
				pred += l.w[j] * v
			}
			err := pred - ys[i]
			for j, v := range row {
				gw[j] += err * v
			}
			gb += err
		}
		inv := 1 / float64(n)
		for j := range l.w {
			l.w[j] -= lr * (gw[j]*inv + l.Config.L2*l.w[j])
		}
		l.b -= lr * gb * inv
	}
	return nil
}

// Predict returns linear predictions in the original target scale.
func (l *Linear) Predict(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		rs := l.sc.apply(row)
		p := l.b
		for j, v := range rs {
			p += l.w[j] * v
		}
		out[i] = p*l.yStd + l.yMean
	}
	return out
}

// Logistic is a one-vs-rest logistic-regression classifier.
type Logistic struct {
	Config  LinearConfig
	w       [][]float64 // per class
	b       []float64
	sc      *scaler
	classes int
}

// NewLogistic returns a logistic-regression classifier.
func NewLogistic(cfg LinearConfig) *Logistic { return &Logistic{Config: cfg.withDefaults()} }

// FitClass trains one-vs-rest logistic regression with SGD.
func (l *Logistic) FitClass(X [][]float64, y []int, classes int) error {
	if err := checkXY(X, len(y)); err != nil {
		return err
	}
	if classes < 2 {
		return errClasses(classes)
	}
	l.classes = classes
	l.sc = fitScaler(X)
	n := len(y)
	d := len(X[0])
	Xs := make([][]float64, n)
	for i, row := range X {
		Xs[i] = l.sc.apply(row)
	}
	l.w = make([][]float64, classes)
	l.b = make([]float64, classes)
	rng := rand.New(rand.NewSource(l.Config.Seed))
	order := rng.Perm(n)
	for c := 0; c < classes; c++ {
		w := make([]float64, d)
		b := 0.0
		lr := l.Config.LearningRate
		for e := 0; e < l.Config.Epochs; e++ {
			for _, i := range order {
				t := 0.0
				if y[i] == c {
					t = 1
				}
				p := b
				for j, v := range Xs[i] {
					p += w[j] * v
				}
				g := sigmoid(p) - t
				for j, v := range Xs[i] {
					w[j] -= lr * (g*v + l.Config.L2*w[j])
				}
				b -= lr * g
			}
			lr *= 0.97
		}
		l.w[c] = w
		l.b[c] = b
	}
	return nil
}

// PredictClass returns argmax class indices.
func (l *Logistic) PredictClass(X [][]float64) []int {
	return predictFromProba(l.Proba(X))
}

// Proba returns normalized one-vs-rest probabilities.
func (l *Logistic) Proba(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		rs := l.sc.apply(row)
		p := make([]float64, l.classes)
		var sum float64
		for c := 0; c < l.classes; c++ {
			s := l.b[c]
			for j, v := range rs {
				s += l.w[c][j] * v
			}
			p[c] = sigmoid(s)
			sum += p[c]
		}
		if sum == 0 {
			sum = 1
		}
		for c := range p {
			p[c] /= sum
		}
		out[i] = p
	}
	return out
}
