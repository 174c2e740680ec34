package pipescript

import (
	"fmt"

	"catdb/internal/data"
	"catdb/internal/obs"
)

// This file is the single source of op knowledge: every PipeScript
// statement kind is registered here with its parser arity, its static
// column footprint (reads/writes/removes/adds), and its executor
// handler. The parser (knownOps), the executor dispatch (execStmt), and
// the static analyzer (Analyze) all consume this one table, so they
// cannot drift from each other. `make lint-optable` enforces that no op
// is wired up anywhere else.

// colRefs is the static column footprint of one statement: which
// columns it reads, mutates in place, removes from the table, and adds.
// One-hot/k-hot indicator names depend on the observed categories, so
// those ops list no adds.
type colRefs struct {
	reads   []string
	writes  []string
	removes []string
	adds    []string
}

// opSpec describes one registered statement kind.
type opSpec struct {
	name    string
	minArgs int
	// pure ops touch no columns at all (pipeline/require/evaluate).
	pure bool
	// encoder marks category encoders for the analyzer's DOUBLE_ENCODE
	// detection (onehot, khot, hash_encode, ordinal, target_encode).
	encoder bool
	// refs derives the static column footprint the analyzer checks; nil
	// for ops whose columns are only known at run time (drop_constant,
	// train, ...).
	refs func(st Stmt) colRefs
	// stringAdds marks ops whose added columns hold strings
	// (split_composite parts still need encoding before train).
	stringAdds bool
	exec       func(e *Executor, st Stmt, c *execCtx) error
}

// opRegistry holds every registered op, keyed by statement keyword.
var opRegistry = map[string]*opSpec{}

// registerOp installs an op into the registry and the parser's arity
// table. It panics on incomplete specs so a miswired op fails at
// package init, not silently at run time.
func registerOp(spec opSpec) {
	if spec.exec == nil {
		panic("pipescript: op " + spec.name + " registered without an exec handler")
	}
	if _, dup := opRegistry[spec.name]; dup {
		panic("pipescript: op " + spec.name + " registered twice")
	}
	s := spec
	opRegistry[spec.name] = &s
	knownOps[spec.name] = spec.minArgs
}

// inPlaceRefs is the footprint of ops that transform one named column
// in place (impute, scale <col>, winsorize, ...).
func inPlaceRefs(st Stmt) colRefs {
	col := st.Arg(0)
	return colRefs{reads: []string{col}, writes: []string{col}}
}

// colOrWholeTable is the footprint of ops whose first argument names
// either one column or a whole-table keyword ("all"/"all_numeric").
// The keyword form enumerates its columns at run time, so it has no
// static footprint.
func colOrWholeTable(keyword string) func(Stmt) colRefs {
	return func(st Stmt) colRefs {
		if st.Arg(0) == keyword {
			return colRefs{}
		}
		return inPlaceRefs(st)
	}
}

// replaceRefs is the footprint of encoders that drop the source column
// and add one derived column with a fixed suffix.
func replaceRefs(suffix string) func(Stmt) colRefs {
	return func(st Stmt) colRefs {
		col := st.Arg(0)
		return colRefs{reads: []string{col}, removes: []string{col}, adds: []string{col + suffix}}
	}
}

// prefixEncodeRefs is the footprint of one-hot/k-hot: the source column
// is dropped and a data-dependent set of "col__<cat>" indicators is
// added.
func prefixEncodeRefs(st Stmt) colRefs {
	col := st.Arg(0)
	return colRefs{reads: []string{col}, removes: []string{col}}
}

// execCtx carries the per-statement execution environment: the live
// train/test tables and the run's shared result state.
type execCtx struct {
	e       *Executor
	tr      *data.Table
	te      *data.Table
	maxOH   int
	res     *Result
	trained *bool
	span    *obs.Span // the statement's span (nil when untraced)
}

// apply records a fitted step and applies it to the test table. code
// wraps any apply error into a RuntimeError; "" returns the raw error
// unchanged.
func (c *execCtx) apply(step FittedStep, line int, code string) error {
	if err := c.e.recordAndApply(step, c.te); err != nil {
		if code == "" {
			return err
		}
		return rtErr(line, code, "%v", err)
	}
	return nil
}

// capOK enforces the encoded-feature cap against the current column
// count.
func (c *execCtx) capOK(line int, kind, col string, adds int) error {
	if c.tr.NumCols()+adds > maxEncodedFeatures {
		return capErr(line, kind, col)
	}
	return nil
}

func capErr(line int, kind, col string) error {
	return rtErr(line, ErrTooManyFeatures, "%s of %q would exceed %d features", kind, col, maxEncodedFeatures)
}

func init() {
	// Core statements (the paper's pipeline vocabulary).
	registerOp(opSpec{name: "pipeline", minArgs: 1, pure: true, exec: (*Executor).execNop})
	registerOp(opSpec{name: "evaluate", minArgs: 0, pure: true, exec: (*Executor).execNop})
	registerOp(opSpec{name: "require", minArgs: 1, pure: true, exec: (*Executor).execRequire})

	registerOp(opSpec{name: "impute", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execImpute})
	registerOp(opSpec{name: "impute_all", minArgs: 0, exec: (*Executor).execImputeAll})

	// clip_outliers <col>|all: the "all" form touches every numeric
	// column; the single-column form clips one column in place.
	registerOp(opSpec{name: "clip_outliers", minArgs: 1,
		refs: colOrWholeTable("all"), exec: (*Executor).execClipOutliers})
	// remove_outliers drops train rows; its refs cover the analyzer's
	// column checks.
	registerOp(opSpec{name: "remove_outliers", minArgs: 1,
		refs: colOrWholeTable("all"), exec: (*Executor).execRemoveOutliers})
	registerOp(opSpec{name: "scale", minArgs: 1,
		refs: colOrWholeTable("all_numeric"), exec: (*Executor).execScale})

	registerOp(opSpec{name: "onehot", minArgs: 1, encoder: true,
		refs: prefixEncodeRefs, exec: (*Executor).execOnehot})
	registerOp(opSpec{name: "khot", minArgs: 1, encoder: true,
		refs: prefixEncodeRefs, exec: (*Executor).execKhot})
	registerOp(opSpec{name: "hash_encode", minArgs: 1, encoder: true,
		refs: replaceRefs("__hash"), exec: (*Executor).execHashEncode})
	registerOp(opSpec{name: "ordinal", minArgs: 1, encoder: true,
		refs: replaceRefs("__ord"), exec: (*Executor).execOrdinal})

	registerOp(opSpec{name: "drop", minArgs: 1,
		refs: func(st Stmt) colRefs {
			return colRefs{reads: []string{st.Arg(0)}, removes: []string{st.Arg(0)}}
		}, exec: (*Executor).execDrop})
	registerOp(opSpec{name: "drop_constant", minArgs: 0, exec: (*Executor).execDropConstant})
	registerOp(opSpec{name: "drop_sparse", minArgs: 0, exec: (*Executor).execDropSparse})

	registerOp(opSpec{name: "split_composite", minArgs: 1, stringAdds: true,
		refs: func(st Stmt) colRefs {
			col := st.Arg(0)
			names := splitNames(st, col)
			return colRefs{reads: []string{col}, removes: []string{col}, adds: names[:]}
		}, exec: (*Executor).execSplitComposite})
	registerOp(opSpec{name: "extract_token", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execExtractToken})
	registerOp(opSpec{name: "dedup_values", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execDedupValues})

	registerOp(opSpec{name: "rebalance", minArgs: 0, exec: (*Executor).execRebalance})
	registerOp(opSpec{name: "augment", minArgs: 0, exec: (*Executor).execAugment})
	registerOp(opSpec{name: "select_topk", minArgs: 0, exec: (*Executor).execSelectTopK})
	registerOp(opSpec{name: "train", minArgs: 0, exec: (*Executor).execTrain})

	// Extended statements beyond the paper's core set (ops_extra.go).
	registerOp(opSpec{name: "bin_numeric", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execBinNumeric})
	registerOp(opSpec{name: "log_transform", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execLogTransform})
	registerOp(opSpec{name: "interaction", minArgs: 2,
		refs: func(st Stmt) colRefs {
			a, b := st.Arg(0), st.Arg(1)
			name := fmt.Sprintf("%s_%s_%s", a, st.Opt("op", "product"), b)
			return colRefs{reads: []string{a, b}, adds: []string{name}}
		}, exec: (*Executor).execInteraction})
	registerOp(opSpec{name: "drop_duplicates", minArgs: 0, exec: (*Executor).execDropDuplicates})
	registerOp(opSpec{name: "winsorize", minArgs: 1, refs: inPlaceRefs, exec: (*Executor).execWinsorize})
	registerOp(opSpec{name: "target_encode", minArgs: 1, encoder: true,
		refs: func(st Stmt) colRefs {
			col := st.Arg(0)
			return colRefs{reads: []string{col}, removes: []string{col}, adds: []string{col + "__tenc"}}
		}, exec: (*Executor).execTargetEncode})
}
