package ml

import (
	"fmt"
)

// This file implements fitted-model serialization for the pipeline
// artifact path: Export captures everything a trained model needs at
// inference time into a flat, JSON-friendly FittedModel, and
// FittedModel.Model reconstructs a live model whose predictions are
// bit-identical to the original (the dumped parameters are the exact
// float64 values the fit produced, and Go's JSON encoder round-trips
// float64 losslessly). Training-only state (RNG seeds, bagging rows,
// binned matrices) is deliberately not serialized.

// Model kind tags stored in FittedModel.Kind.
const (
	KindForest     = "forest"
	KindExtraTrees = "extra_trees"
	KindTree       = "tree"
	KindGBM        = "gbm"
	KindKNN        = "knn"
	KindLogistic   = "logistic"
	KindLinear     = "linear"
	KindNaiveBayes = "naive_bayes"
	KindSVM        = "svm"
	KindTabPFN     = "tabpfn"
)

// FlatNode is one node of a flattened decision tree: children are
// indices into the node slice (-1 = absent), parents precede children,
// so a preorder walk reconstructs the tree and malformed child indices
// (<= parent) are rejected rather than looping.
type FlatNode struct {
	Feature   int       `json:"f"`
	Threshold float64   `json:"t"`
	Left      int       `json:"l"`
	Right     int       `json:"r"`
	Leaf      bool      `json:"leaf,omitempty"`
	Value     []float64 `json:"v,omitempty"`
}

// ScalerDump holds fitted standardization parameters.
type ScalerDump struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// FittedModel is the serializable form of any trained model in the zoo.
// Only the fields relevant to Kind are populated; the rest stay at their
// zero values and are omitted from the encoding.
type FittedModel struct {
	Kind    string `json:"kind"`
	Classes int    `json:"classes,omitempty"` // 0 for regression

	// Tree ensembles (forest, extra_trees, tree, gbm regression chain).
	Trees [][]FlatNode `json:"trees,omitempty"`
	// GBM classification: per class, per boosting round.
	OVR          [][][]FlatNode `json:"ovr,omitempty"`
	Base         float64        `json:"base,omitempty"`
	Bias         []float64      `json:"bias,omitempty"`
	LearningRate float64        `json:"learning_rate,omitempty"`

	// Instance stores (knn, tabpfn) hold already-standardized rows.
	X         [][]float64 `json:"x,omitempty"`
	Yr        []float64   `json:"yr,omitempty"`
	Yc        []int       `json:"yc,omitempty"`
	K         int         `json:"k,omitempty"`
	Bandwidth float64     `json:"bandwidth,omitempty"`

	// Linear family.
	W     []float64   `json:"w,omitempty"`  // linear regression weights
	WC    [][]float64 `json:"wc,omitempty"` // logistic / svm per-class weights
	B     float64     `json:"b,omitempty"`
	BC    []float64   `json:"bc,omitempty"`
	YMean float64     `json:"y_mean,omitempty"`
	YStd  float64     `json:"y_std,omitempty"`

	// Gaussian naive Bayes.
	Prior []float64   `json:"prior,omitempty"`
	Mean  [][]float64 `json:"mean,omitempty"`
	Vari  [][]float64 `json:"vari,omitempty"`

	Scaler *ScalerDump `json:"scaler,omitempty"`
}

func flattenNode(n *treeNode, out *[]FlatNode) int {
	if n == nil {
		return -1
	}
	i := len(*out)
	*out = append(*out, FlatNode{})
	fn := FlatNode{Feature: n.feature, Threshold: n.threshold,
		Leaf: n.isLeaf, Value: n.value, Left: -1, Right: -1}
	fn.Left = flattenNode(n.left, out)
	fn.Right = flattenNode(n.right, out)
	(*out)[i] = fn
	return i
}

func flattenRandNode(n *randTree, out *[]FlatNode) int {
	if n == nil {
		return -1
	}
	i := len(*out)
	*out = append(*out, FlatNode{})
	fn := FlatNode{Feature: n.feature, Threshold: n.threshold,
		Leaf: n.isLeaf, Value: n.value, Left: -1, Right: -1}
	fn.Left = flattenRandNode(n.left, out)
	fn.Right = flattenRandNode(n.right, out)
	(*out)[i] = fn
	return i
}

func flattenTree(root *treeNode) []FlatNode {
	var out []FlatNode
	flattenNode(root, &out)
	return out
}

func flattenRandTree(root *randTree) []FlatNode {
	var out []FlatNode
	flattenRandNode(root, &out)
	return out
}

func checkChild(nodes []FlatNode, parent, child int) error {
	if child == -1 {
		return nil
	}
	if child <= parent || child >= len(nodes) {
		return fmt.Errorf("ml: malformed tree dump: node %d has child index %d (of %d nodes)",
			parent, child, len(nodes))
	}
	return nil
}

func unflattenNode(nodes []FlatNode, i int) (*treeNode, error) {
	if i < 0 {
		return nil, nil
	}
	fn := nodes[i]
	if err := checkChild(nodes, i, fn.Left); err != nil {
		return nil, err
	}
	if err := checkChild(nodes, i, fn.Right); err != nil {
		return nil, err
	}
	n := &treeNode{feature: fn.Feature, threshold: fn.Threshold,
		isLeaf: fn.Leaf, value: fn.Value}
	var err error
	if n.left, err = unflattenNode(nodes, fn.Left); err != nil {
		return nil, err
	}
	if n.right, err = unflattenNode(nodes, fn.Right); err != nil {
		return nil, err
	}
	return n, nil
}

func unflattenRandNode(nodes []FlatNode, i int) (*randTree, error) {
	if i < 0 {
		return nil, nil
	}
	fn := nodes[i]
	if err := checkChild(nodes, i, fn.Left); err != nil {
		return nil, err
	}
	if err := checkChild(nodes, i, fn.Right); err != nil {
		return nil, err
	}
	n := &randTree{feature: fn.Feature, threshold: fn.Threshold,
		isLeaf: fn.Leaf, value: fn.Value}
	var err error
	if n.left, err = unflattenRandNode(nodes, fn.Left); err != nil {
		return nil, err
	}
	if n.right, err = unflattenRandNode(nodes, fn.Right); err != nil {
		return nil, err
	}
	return n, nil
}

// checkTree validates a flattened tree before reconstruction: it must
// be non-empty, and every split node must address a feature column in
// [0, nFeatures). Traversal indexes rows by split feature unchecked, so
// this is what keeps a corrupt dump from scoring silently or panicking.
func checkTree(nodes []FlatNode, nFeatures int) error {
	if len(nodes) == 0 {
		return fmt.Errorf("ml: malformed tree dump: empty tree")
	}
	for i, n := range nodes {
		if !n.Leaf && (n.Feature < 0 || n.Feature >= nFeatures) {
			return fmt.Errorf("ml: malformed tree dump: node %d splits on feature %d (model has %d features)",
				i, n.Feature, nFeatures)
		}
	}
	return nil
}

func unflattenTree(nodes []FlatNode, nFeatures int) (*treeNode, error) {
	if err := checkTree(nodes, nFeatures); err != nil {
		return nil, err
	}
	return unflattenNode(nodes, 0)
}

func unflattenRandTree(nodes []FlatNode, nFeatures int) (*randTree, error) {
	if err := checkTree(nodes, nFeatures); err != nil {
		return nil, err
	}
	return unflattenRandNode(nodes, 0)
}

func dumpScaler(s *scaler) *ScalerDump {
	if s == nil {
		return nil
	}
	return &ScalerDump{Mean: s.mean, Std: s.std}
}

func loadScaler(d *ScalerDump, kind string) (*scaler, error) {
	if d == nil {
		return nil, fmt.Errorf("ml: %s dump is missing its scaler", kind)
	}
	return &scaler{mean: d.Mean, std: d.Std}, nil
}

// Export captures a trained model's inference-time parameters. It errors
// on unknown model types and on models that have not been fitted.
func Export(m any) (*FittedModel, error) {
	switch v := m.(type) {
	case *Forest:
		if !v.Fitted() {
			return nil, fmt.Errorf("ml: cannot export unfitted forest")
		}
		fm := &FittedModel{Kind: KindForest, Classes: v.classes}
		for _, t := range v.trees {
			fm.Trees = append(fm.Trees, flattenTree(t.root))
		}
		return fm, nil
	case *ExtraTrees:
		if !v.Fitted() {
			return nil, fmt.Errorf("ml: cannot export unfitted extra-trees ensemble")
		}
		fm := &FittedModel{Kind: KindExtraTrees, Classes: v.classes}
		for _, t := range v.trees {
			fm.Trees = append(fm.Trees, flattenRandTree(t))
		}
		return fm, nil
	case *Tree:
		if v.root == nil {
			return nil, fmt.Errorf("ml: cannot export unfitted tree")
		}
		return &FittedModel{Kind: KindTree, Classes: v.classes,
			Trees: [][]FlatNode{flattenTree(v.root)}}, nil
	case *GBM:
		if !v.Fitted() {
			return nil, fmt.Errorf("ml: cannot export unfitted gbm")
		}
		fm := &FittedModel{Kind: KindGBM, Classes: v.classes,
			Base: v.base, Bias: v.bias, LearningRate: v.Config.LearningRate}
		for _, t := range v.trees {
			fm.Trees = append(fm.Trees, flattenTree(t.root))
		}
		for _, chain := range v.ovr {
			var flat [][]FlatNode
			for _, t := range chain {
				flat = append(flat, flattenTree(t.root))
			}
			fm.OVR = append(fm.OVR, flat)
		}
		return fm, nil
	case *KNN:
		if len(v.x) == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted knn")
		}
		return &FittedModel{Kind: KindKNN, Classes: v.classes,
			X: v.x, Yr: v.yr, Yc: v.yc, K: v.Config.K, Scaler: dumpScaler(v.sc)}, nil
	case *Logistic:
		if len(v.w) == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted logistic model")
		}
		return &FittedModel{Kind: KindLogistic, Classes: v.classes,
			WC: v.w, BC: v.b, Scaler: dumpScaler(v.sc)}, nil
	case *Linear:
		if v.sc == nil {
			return nil, fmt.Errorf("ml: cannot export unfitted linear model")
		}
		return &FittedModel{Kind: KindLinear, W: v.w, B: v.b,
			YMean: v.yMean, YStd: v.yStd, Scaler: dumpScaler(v.sc)}, nil
	case *NaiveBayes:
		if v.classes == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted naive-bayes model")
		}
		return &FittedModel{Kind: KindNaiveBayes, Classes: v.classes,
			Prior: v.prior, Mean: v.mean, Vari: v.vari}, nil
	case *SVM:
		if len(v.w) == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted svm")
		}
		return &FittedModel{Kind: KindSVM, Classes: v.classes,
			WC: v.w, BC: v.b, Scaler: dumpScaler(v.sc)}, nil
	case *TabPFNSim:
		if len(v.x) == 0 {
			return nil, fmt.Errorf("ml: cannot export unfitted tabpfn model")
		}
		return &FittedModel{Kind: KindTabPFN, Classes: v.classes,
			X: v.x, Yc: v.y, Bandwidth: v.bandwidth, Scaler: dumpScaler(v.sc)}, nil
	default:
		return nil, fmt.Errorf("ml: cannot export model of type %T", m)
	}
}

// Model reconstructs a live model from the dump. nFeatures is the width
// of the rows the model will score: tree dumps are rejected when a tree
// is empty or a split node addresses a feature outside [0, nFeatures).
func (fm *FittedModel) Model(nFeatures int) (any, error) {
	switch fm.Kind {
	case KindForest:
		f := NewForest(ForestConfig{})
		f.classes = fm.Classes
		for _, nodes := range fm.Trees {
			root, err := unflattenTree(nodes, nFeatures)
			if err != nil {
				return nil, err
			}
			t := NewTree(TreeConfig{})
			t.root, t.classes = root, fm.Classes
			f.trees = append(f.trees, t)
		}
		if len(f.trees) == 0 {
			return nil, fmt.Errorf("ml: forest dump has no trees")
		}
		return f, nil
	case KindExtraTrees:
		e := NewExtraTrees(ForestConfig{})
		e.classes = fm.Classes
		for _, nodes := range fm.Trees {
			root, err := unflattenRandTree(nodes, nFeatures)
			if err != nil {
				return nil, err
			}
			e.trees = append(e.trees, root)
		}
		if len(e.trees) == 0 {
			return nil, fmt.Errorf("ml: extra-trees dump has no trees")
		}
		return e, nil
	case KindTree:
		if len(fm.Trees) != 1 {
			return nil, fmt.Errorf("ml: tree dump needs exactly 1 tree, got %d", len(fm.Trees))
		}
		root, err := unflattenTree(fm.Trees[0], nFeatures)
		if err != nil {
			return nil, err
		}
		t := NewTree(TreeConfig{})
		t.root, t.classes = root, fm.Classes
		return t, nil
	case KindGBM:
		g := NewGBM(GBMConfig{LearningRate: fm.LearningRate})
		g.classes = fm.Classes
		g.base = fm.Base
		g.bias = fm.Bias
		for _, nodes := range fm.Trees {
			root, err := unflattenTree(nodes, nFeatures)
			if err != nil {
				return nil, err
			}
			t := NewTree(TreeConfig{})
			t.root = root
			g.trees = append(g.trees, t)
		}
		for _, chain := range fm.OVR {
			var trees []*Tree
			for _, nodes := range chain {
				root, err := unflattenTree(nodes, nFeatures)
				if err != nil {
					return nil, err
				}
				t := NewTree(TreeConfig{})
				t.root = root
				trees = append(trees, t)
			}
			g.ovr = append(g.ovr, trees)
		}
		if len(g.trees) == 0 && len(g.ovr) == 0 {
			return nil, fmt.Errorf("ml: gbm dump has no trees")
		}
		if fm.Classes > 0 && len(g.ovr) != fm.Classes {
			return nil, fmt.Errorf("ml: gbm dump has %d OVR chains for %d classes", len(g.ovr), fm.Classes)
		}
		g.fitted = true
		return g, nil
	case KindKNN:
		sc, err := loadScaler(fm.Scaler, fm.Kind)
		if err != nil {
			return nil, err
		}
		k := NewKNN(KNNConfig{K: fm.K})
		k.classes = fm.Classes
		k.x, k.yr, k.yc, k.sc = fm.X, fm.Yr, fm.Yc, sc
		if len(k.x) == 0 {
			return nil, fmt.Errorf("ml: knn dump has no stored rows")
		}
		return k, nil
	case KindLogistic:
		sc, err := loadScaler(fm.Scaler, fm.Kind)
		if err != nil {
			return nil, err
		}
		l := NewLogistic(LinearConfig{})
		l.classes = fm.Classes
		l.w, l.b, l.sc = fm.WC, fm.BC, sc
		return l, nil
	case KindLinear:
		sc, err := loadScaler(fm.Scaler, fm.Kind)
		if err != nil {
			return nil, err
		}
		l := NewLinear(LinearConfig{})
		l.w, l.b, l.sc, l.yMean, l.yStd = fm.W, fm.B, sc, fm.YMean, fm.YStd
		return l, nil
	case KindNaiveBayes:
		nb := NewNaiveBayes()
		nb.classes = fm.Classes
		nb.prior, nb.mean, nb.vari = fm.Prior, fm.Mean, fm.Vari
		if len(nb.prior) != fm.Classes {
			return nil, fmt.Errorf("ml: naive-bayes dump has %d priors for %d classes", len(nb.prior), fm.Classes)
		}
		return nb, nil
	case KindSVM:
		sc, err := loadScaler(fm.Scaler, fm.Kind)
		if err != nil {
			return nil, err
		}
		m := NewSVM(LinearConfig{})
		m.classes = fm.Classes
		m.w, m.b, m.sc = fm.WC, fm.BC, sc
		return m, nil
	case KindTabPFN:
		sc, err := loadScaler(fm.Scaler, fm.Kind)
		if err != nil {
			return nil, err
		}
		t := NewTabPFNSim()
		t.classes = fm.Classes
		t.x, t.y, t.sc, t.bandwidth = fm.X, fm.Yc, sc, fm.Bandwidth
		return t, nil
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q", fm.Kind)
	}
}
