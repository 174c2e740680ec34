package ledger

import (
	"fmt"
	"sort"
	"strings"
)

// Regression is one flagged metric: the latest run of a configuration
// exceeded its baseline beyond the caller's threshold.
type Regression struct {
	Key      string // ConfigHash|Dataset|Model group identity
	Dataset  string
	Model    string
	Metric   string // "stage_seconds/exec", "tokens/total", ...
	Baseline float64
	Latest   float64
	Ratio    float64 // Latest / Baseline
}

func (r Regression) String() string {
	hash := r.Key
	if i := strings.IndexByte(hash, '|'); i >= 0 {
		hash = hash[:i]
	}
	if len(hash) > 8 {
		hash = hash[:8]
	}
	return fmt.Sprintf("%s %s/%s: %s %.3f -> %.3f (%.2fx)",
		r.Dataset, r.Model, hash, r.Metric, r.Baseline, r.Latest, r.Ratio)
}

// minCompareSeconds is the absolute floor below which stage-time
// deltas are noise, not regressions: a stage going 1ms -> 2ms doubles
// but means nothing on a warm cache.
const minCompareSeconds = 0.005

// Compare checks each configuration group's latest run against its
// baseline (the earliest record with the same Key). A stage time or
// the token total regresses when latest > baseline*(1+threshold);
// stage times additionally need the delta to clear an absolute ~5ms
// floor. Returns the regressions (deterministically ordered) and how
// many groups had both a baseline and a later run to compare.
func Compare(records []Record, threshold float64) (regs []Regression, compared int) {
	groups := map[string][]Record{}
	var order []string
	for _, r := range records {
		k := r.Key()
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Strings(order)
	for _, k := range order {
		g := groups[k]
		if len(g) < 2 {
			continue // no history to compare against
		}
		compared++
		base, last := g[0], g[len(g)-1]
		flag := func(metric string, bv, lv float64) {
			regs = append(regs, Regression{
				Key: k, Dataset: last.Dataset, Model: last.Model,
				Metric: metric, Baseline: bv, Latest: lv, Ratio: lv / bv,
			})
		}
		stages := make([]string, 0, len(base.StageSeconds))
		for s := range base.StageSeconds {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, s := range stages {
			bv, lv := base.StageSeconds[s], last.StageSeconds[s]
			if bv <= 0 {
				continue
			}
			if lv > bv*(1+threshold) && lv-bv > minCompareSeconds {
				flag("stage_seconds/"+s, bv, lv)
			}
		}
		if bt, lt := base.TotalTokens(), last.TotalTokens(); bt > 0 && float64(lt) > float64(bt)*(1+threshold) {
			flag("tokens/total", float64(bt), float64(lt))
		}
	}
	return regs, compared
}
