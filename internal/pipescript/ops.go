package pipescript

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"catdb/internal/data"
)

// maxEncodedFeatures caps the total feature count encoders may create; the
// analogue of a pipeline blowing up memory through one-hot explosion.
const maxEncodedFeatures = 4096

// sentenceStopwords are the filler words the extract_token op strips; they
// cover the templates the synthetic generator uses plus common glue words,
// matching how the (simulated) LLM turns sentences into categories.
var sentenceStopwords = map[string]bool{
	"about": true, "roughly": true, "or": true, "so": true, "confirmed": true,
	"(confirmed)": true, "reported": true, "as": true, "it": true, "is": true,
	"overall": true, "the": true, "a": true, "an": true, "of": true,
	"this": true, "note": true, "number": true,
}

// imputeValue computes the fill value for a column from train data.
func imputeValue(c *data.Column, strategy string) (num float64, str string, err error) {
	switch strategy {
	case "mean":
		if !c.Kind.IsNumeric() {
			return 0, "", fmt.Errorf("mean imputation on non-numeric column %q", c.Name)
		}
		return c.NumericStats().Mean, "", nil
	case "median":
		if !c.Kind.IsNumeric() {
			return 0, "", fmt.Errorf("median imputation on non-numeric column %q", c.Name)
		}
		return c.NumericStats().Median, "", nil
	case "most_frequent":
		counts := map[string]int{}
		for i := 0; i < c.Len(); i++ {
			if !c.IsMissing(i) {
				counts[c.ValueString(i)]++
			}
		}
		best, bestN := "", -1
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if counts[k] > bestN {
				best, bestN = k, counts[k]
			}
		}
		if c.Kind.IsNumeric() {
			f, _ := strconv.ParseFloat(best, 64)
			return f, "", nil
		}
		return 0, best, nil
	default:
		if strings.HasPrefix(strategy, "constant:") {
			v := strings.TrimPrefix(strategy, "constant:")
			if c.Kind.IsNumeric() {
				f, perr := strconv.ParseFloat(v, 64)
				if perr != nil {
					return 0, "", fmt.Errorf("constant %q is not numeric", v)
				}
				return f, "", nil
			}
			return 0, v, nil
		}
		return 0, "", fmt.Errorf("unknown imputation strategy %q", strategy)
	}
}

func applyImpute(c *data.Column, num float64, str string) {
	for i := 0; i < c.Len(); i++ {
		if !c.IsMissing(i) {
			continue
		}
		c.ClearMissing(i)
		if c.Kind.IsNumeric() {
			c.SetNum(i, num)
		} else {
			c.SetStr(i, str)
		}
	}
}

// iqrBounds computes [Q1-f*IQR, Q3+f*IQR] from a train column.
func iqrBounds(c *data.Column, factor float64) (lo, hi float64) {
	q1, q3 := c.Quantile(0.25), c.Quantile(0.75)
	iqr := q3 - q1
	return q1 - factor*iqr, q3 + factor*iqr
}

func clipColumn(c *data.Column, lo, hi float64) {
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) {
			continue
		}
		if c.Num(i) < lo {
			c.SetNum(i, lo)
		}
		if c.Num(i) > hi {
			c.SetNum(i, hi)
		}
	}
}

// scaleParams holds fitted scaling parameters for one column.
type scaleParams struct {
	method string
	a, b   float64 // standard: mean/std; minmax: min/span; decimal: 1/pow10, 0
}

func fitScale(c *data.Column, method string) (scaleParams, error) {
	st := c.NumericStats()
	switch method {
	case "standard":
		std := st.Std
		if std == 0 {
			std = 1
		}
		return scaleParams{method: method, a: st.Mean, b: std}, nil
	case "minmax":
		span := st.Max - st.Min
		if span == 0 {
			span = 1
		}
		return scaleParams{method: method, a: st.Min, b: span}, nil
	case "decimal":
		maxAbs := math.Max(math.Abs(st.Min), math.Abs(st.Max))
		p := 1.0
		for maxAbs >= 1 {
			maxAbs /= 10
			p *= 10
		}
		return scaleParams{method: method, a: p, b: 0}, nil
	default:
		return scaleParams{}, fmt.Errorf("unknown scaling method %q", method)
	}
}

func (sp scaleParams) apply(c *data.Column) {
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) {
			continue
		}
		switch sp.method {
		case "standard":
			c.SetNum(i, (c.Num(i)-sp.a)/sp.b)
		case "minmax":
			c.SetNum(i, (c.Num(i)-sp.a)/sp.b)
		case "decimal":
			c.SetNum(i, c.Num(i)/sp.a)
		}
	}
	c.Kind = data.KindFloat
}

// topCategories returns up to max categories of c by descending frequency
// (ties broken alphabetically for determinism).
func topCategories(c *data.Column, max int) []string {
	counts := map[string]int{}
	for i := 0; i < c.Len(); i++ {
		if !c.IsMissing(i) {
			counts[c.ValueString(i)]++
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > max {
		keys = keys[:max]
	}
	return keys
}

// oneHot replaces col with 0/1 indicator columns for cats.
func oneHot(t *data.Table, col string, cats []string) error {
	c := t.Col(col)
	if c == nil {
		return fmt.Errorf("column %q missing", col)
	}
	n := c.Len()
	idx := make(map[string]int, len(cats))
	vals := make([][]float64, len(cats))
	for j, cat := range cats {
		idx[cat] = j
		vals[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if c.IsMissing(i) {
			continue
		}
		if j, ok := idx[c.ValueString(i)]; ok {
			vals[j][i] = 1
		}
	}
	t.DropColumn(col)
	for j, cat := range cats {
		if err := t.AddColumn(data.NewNumeric(encodedName(col, cat), vals[j])); err != nil {
			return err
		}
	}
	return nil
}

// kHot replaces a list column with per-item indicator columns.
func kHot(t *data.Table, col string, items []string) error {
	c := t.Col(col)
	if c == nil {
		return fmt.Errorf("column %q missing", col)
	}
	n := c.Len()
	idx := make(map[string]int, len(items))
	vals := make([][]float64, len(items))
	for j, item := range items {
		idx[item] = j
		vals[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if c.IsMissing(i) {
			continue
		}
		for _, part := range strings.Split(c.Str(i), ",") {
			if j, ok := idx[strings.TrimSpace(part)]; ok {
				vals[j][i] = 1
			}
		}
	}
	t.DropColumn(col)
	for j, item := range items {
		if err := t.AddColumn(data.NewNumeric(encodedName(col, item), vals[j])); err != nil {
			return err
		}
	}
	return nil
}

// listItems returns the sorted item vocabulary of a list column (capped).
func listItems(c *data.Column, max int) []string {
	set := map[string]struct{}{}
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) {
			continue
		}
		for _, part := range strings.Split(c.Str(i), ",") {
			p := strings.TrimSpace(part)
			if p != "" {
				set[p] = struct{}{}
			}
		}
	}
	items := make([]string, 0, len(set))
	for k := range set {
		items = append(items, k)
	}
	sort.Strings(items)
	if len(items) > max {
		items = items[:max]
	}
	return items
}

func encodedName(col, cat string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, cat)
	if len(clean) > 24 {
		clean = clean[:24]
	}
	return col + "__" + clean
}

// hashEncode replaces a column with a single numeric bucket column.
func hashEncode(t *data.Table, col string, buckets int) error {
	c := t.Col(col)
	if c == nil {
		return fmt.Errorf("column %q missing", col)
	}
	if buckets <= 0 {
		return fmt.Errorf("hash_encode needs buckets > 0, got %d", buckets)
	}
	vals := make([]float64, c.Len())
	nc := data.NewNumeric(col+"__hash", vals)
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) {
			// Preserve the missing mask.
			nc.SetMissing(i)
			continue
		}
		vals[i] = float64(stringHash(c.ValueString(i)) % uint64(buckets))
	}
	t.DropColumn(col)
	return t.AddColumn(nc)
}

func stringHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// ordinalEncode maps train categories to indices; unseen values become -1.
func ordinalEncode(t *data.Table, col string, mapping map[string]int) error {
	c := t.Col(col)
	if c == nil {
		return fmt.Errorf("column %q missing", col)
	}
	vals := make([]float64, c.Len())
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) {
			vals[i] = -1
			continue
		}
		if idx, ok := mapping[c.ValueString(i)]; ok {
			vals[i] = float64(idx)
		} else {
			vals[i] = -1
		}
	}
	t.DropColumn(col)
	return t.AddColumn(data.NewNumeric(col+"__ord", vals))
}

// splitComposite splits values like "7050 CA" into a numeric-token part and
// an alpha-token part, creating two new string columns.
func splitComposite(t *data.Table, col, nameA, nameB string) error {
	c := t.Col(col)
	if c == nil {
		return fmt.Errorf("column %q missing", col)
	}
	n := c.Len()
	alpha := make([]string, n)
	num := make([]string, n)
	alphaCol := data.NewString(nameA, alpha)
	numCol := data.NewString(nameB, num)
	for i := 0; i < n; i++ {
		if c.IsMissing(i) {
			alphaCol.SetMissing(i)
			numCol.SetMissing(i)
			continue
		}
		var alphaParts, numParts []string
		for _, tok := range strings.Fields(c.Str(i)) {
			if isNumericToken(tok) {
				numParts = append(numParts, tok)
			} else {
				alphaParts = append(alphaParts, tok)
			}
		}
		if len(alphaParts) == 0 {
			alphaCol.SetMissing(i)
		} else {
			alphaCol.SetStr(i, strings.Join(alphaParts, " "))
		}
		if len(numParts) == 0 {
			numCol.SetMissing(i)
		} else {
			numCol.SetStr(i, strings.Join(numParts, " "))
		}
	}
	t.DropColumn(col)
	if err := t.AddColumn(alphaCol); err != nil {
		return err
	}
	return t.AddColumn(numCol)
}

func isNumericToken(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// extractToken rewrites each sentence cell to its content token (longest
// non-stopword token), turning sentence columns into categoricals.
func extractToken(c *data.Column) {
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) {
			continue
		}
		c.SetStr(i, ContentToken(c.Str(i)))
	}
}

// ContentToken returns the informative token of a sentence value: the
// longest token that is not a known filler word (ties: first occurrence).
func ContentToken(s string) string {
	best := ""
	for _, tok := range strings.Fields(s) {
		clean := strings.Trim(strings.ToLower(tok), "().,;:!?")
		if clean == "" || sentenceStopwords[clean] {
			continue
		}
		if len(clean) > len(best) {
			best = clean
		}
	}
	if best == "" {
		return strings.TrimSpace(strings.ToLower(s))
	}
	return best
}

// NormalizeValue canonicalizes a categorical surface form: trim, lower,
// unify separators, collapse spaces. Semantically-equivalent dirty variants
// produced by the generator collapse to the same normal form.
func NormalizeValue(s string) string {
	s = strings.TrimSpace(strings.ToLower(s))
	s = strings.ReplaceAll(s, "-", "_")
	for strings.Contains(s, "  ") {
		s = strings.ReplaceAll(s, "  ", " ")
	}
	return s
}

// DedupMapping builds raw→canonical over the distinct values of a column:
// values sharing a normal form map to the most frequent raw spelling.
func DedupMapping(c *data.Column) map[string]string {
	counts := map[string]int{}
	for i := 0; i < c.Len(); i++ {
		if !c.IsMissing(i) {
			counts[c.ValueString(i)]++
		}
	}
	groups := map[string][]string{}
	for raw := range counts {
		nf := NormalizeValue(raw)
		groups[nf] = append(groups[nf], raw)
	}
	out := map[string]string{}
	for _, raws := range groups {
		sort.Slice(raws, func(i, j int) bool {
			if counts[raws[i]] != counts[raws[j]] {
				return counts[raws[i]] > counts[raws[j]]
			}
			return raws[i] < raws[j]
		})
		canon := raws[0]
		for _, raw := range raws {
			out[raw] = canon
		}
	}
	return out
}

// applyMapping rewrites string cells through the mapping; unmapped values
// are normalized and re-looked-up so unseen test variants still collapse.
func applyMapping(c *data.Column, mapping map[string]string, byNormal map[string]string) {
	for i := 0; i < c.Len(); i++ {
		if c.IsMissing(i) {
			continue
		}
		s := c.Str(i)
		if to, ok := mapping[s]; ok {
			c.SetStr(i, to)
			continue
		}
		if to, ok := byNormal[NormalizeValue(s)]; ok {
			c.SetStr(i, to)
		}
	}
}

// rebalanceADASYN oversamples minority classes on the train table by
// jittered duplication of minority rows (an ADASYN-flavoured synthetic
// sampler over mixed-type rows: numeric cells get Gaussian jitter scaled by
// the column std, other cells are copied).
func rebalanceADASYN(t *data.Table, target string, seed int64) error {
	c := t.Col(target)
	if c == nil {
		return fmt.Errorf("target %q missing", target)
	}
	groups := map[string][]int{}
	for i := 0; i < t.NumRows(); i++ {
		groups[c.ValueString(i)] = append(groups[c.ValueString(i)], i)
	}
	maxN := 0
	for _, rows := range groups {
		if len(rows) > maxN {
			maxN = len(rows)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	stds := map[string]float64{}
	for _, col := range t.Cols {
		if col.Kind.IsNumeric() && col.Name != target {
			stds[col.Name] = col.NumericStats().Std
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, label := range keys {
		rows := groups[label]
		need := maxN - len(rows)
		// Cap synthesis to 3x the class size to bound blow-up on extreme
		// imbalance.
		if need > 3*len(rows) {
			need = 3 * len(rows)
		}
		for k := 0; k < need; k++ {
			src := rows[rng.Intn(len(rows))]
			for _, col := range t.Cols {
				col.AppendFrom(col, src)
				if std, ok := stds[col.Name]; ok && !col.IsMissing(col.Len()-1) {
					last := col.Len() - 1
					col.SetNum(last, col.Num(last)+rng.NormFloat64()*std*0.05)
				}
			}
		}
	}
	return nil
}

// augmentRegression densifies sparse target regions by jittered duplication
// (the Imbalanced-Learning-Regression analogue).
func augmentRegression(t *data.Table, target string, factor float64, seed int64) error {
	c := t.Col(target)
	if c == nil {
		return fmt.Errorf("target %q missing", target)
	}
	if !c.Kind.IsNumeric() {
		return fmt.Errorf("regression augmentation needs numeric target")
	}
	rng := rand.New(rand.NewSource(seed))
	lo, hi := c.Quantile(0.1), c.Quantile(0.9)
	var tails []int
	for i := 0; i < c.Len(); i++ {
		if !c.IsMissing(i) && (c.Num(i) < lo || c.Num(i) > hi) {
			tails = append(tails, i)
		}
	}
	if len(tails) == 0 {
		return nil
	}
	need := int(float64(t.NumRows()) * factor)
	stds := map[string]float64{}
	for _, col := range t.Cols {
		if col.Kind.IsNumeric() {
			stds[col.Name] = col.NumericStats().Std
		}
	}
	for k := 0; k < need; k++ {
		src := tails[rng.Intn(len(tails))]
		for _, col := range t.Cols {
			col.AppendFrom(col, src)
			if std, ok := stds[col.Name]; ok && !col.IsMissing(col.Len()-1) {
				last := col.Len() - 1
				col.SetNum(last, col.Num(last)+rng.NormFloat64()*std*0.05)
			}
		}
	}
	return nil
}

// Exported wrappers for catalog materialization (internal/catalog reuses
// the exact transforms the pipeline executor applies, so refined data and
// pipeline-transformed data behave identically).

// KHot replaces a list column with per-item indicator columns.
func KHot(t *data.Table, col string, items []string) error { return kHot(t, col, items) }

// ListItems returns the sorted item vocabulary of a list column (capped).
func ListItems(c *data.Column, max int) []string { return listItems(c, max) }

// SplitComposite splits a mixed alpha/numeric composite column into two.
func SplitComposite(t *data.Table, col, nameA, nameB string) error {
	return splitComposite(t, col, nameA, nameB)
}

// ExtractTokens rewrites sentence cells to their content tokens in place.
func ExtractTokens(c *data.Column) { extractToken(c) }

// ApplyValueMapping rewrites string cells through a raw→canonical mapping,
// normalizing unmapped values before a second lookup.
func ApplyValueMapping(c *data.Column, mapping map[string]string) {
	byNormal := map[string]string{}
	for raw, canon := range mapping {
		byNormal[NormalizeValue(raw)] = canon
	}
	applyMapping(c, mapping, byNormal)
}
