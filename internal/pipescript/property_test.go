package pipescript

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"catdb/internal/data"
)

// genProgram builds a random syntactically-valid PipeScript program.
func genProgram(rng *rand.Rand) string {
	cols := []string{"alpha", "beta", "gamma", "delta"}
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline %q\n", "prop")
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		col := cols[rng.Intn(len(cols))]
		switch rng.Intn(8) {
		case 0:
			fmt.Fprintf(&b, "impute %q strategy=median\n", col)
		case 1:
			b.WriteString("impute_all strategy=auto\n")
		case 2:
			fmt.Fprintf(&b, "onehot %q\n", col)
		case 3:
			fmt.Fprintf(&b, "scale %q method=standard\n", col)
		case 4:
			fmt.Fprintf(&b, "drop %q\n", col)
		case 5:
			fmt.Fprintf(&b, "clip_outliers %q method=iqr factor=1.5\n", col)
		case 6:
			fmt.Fprintf(&b, "hash_encode %q buckets=%d\n", col, 2+rng.Intn(64))
		default:
			b.WriteString("drop_constant\n")
		}
	}
	fmt.Fprintf(&b, "train model=random_forest target=%q trees=%d\n", "y", 5+rng.Intn(40))
	b.WriteString("evaluate metric=auto\n")
	return b.String()
}

// Property: every generated valid program parses, and re-parsing the
// statement count is stable.
func TestPropertyValidProgramsParse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genProgram(rng)
		p, err := Parse(src)
		if err != nil {
			return false
		}
		p2, err := Parse(src)
		if err != nil {
			return false
		}
		return len(p.Stmts) == len(p2.Stmts) && p.TrainStmt() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: NormalizeValue is idempotent.
func TestPropertyNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := NormalizeValue(s)
		return NormalizeValue(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: DedupMapping maps every distinct value, and applying the
// mapping twice equals applying it once (the mapping is closed).
func TestPropertyDedupMappingClosed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := []string{"red", "green", "blue", "teal"}
		n := 10 + rng.Intn(50)
		vals := make([]string, n)
		for i := range vals {
			v := base[rng.Intn(len(base))]
			switch rng.Intn(4) {
			case 0:
				v = strings.ToUpper(v)
			case 1:
				v = " " + v
			case 2:
				v = v + " "
			}
			vals[i] = v
		}
		c := data.NewString("c", vals)
		m := DedupMapping(c)
		for _, d := range c.Distinct() {
			if _, ok := m[d]; !ok {
				return false
			}
		}
		// Closure: canonical values map to themselves.
		for _, canon := range m {
			if m[canon] != canon {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: one-hot encoding produces rows whose indicator sum is at most
// 1 and exactly 1 for non-missing cells of known categories.
func TestPropertyOneHotRowSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = string(rune('a' + rng.Intn(5)))
		}
		c := data.NewString("c", vals)
		if rng.Intn(2) == 0 {
			c.SetMissing(rng.Intn(n))
		}
		t := data.NewTable("t")
		t.MustAddColumn(c.Clone())
		cats := topCategories(c, 10)
		if err := oneHot(t, "c", cats); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			for _, col := range t.Cols {
				sum += col.Num(i)
			}
			if c.IsMissing(i) {
				if sum != 0 {
					return false
				}
			} else if sum != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ContentToken never returns a known stopword for inputs that
// contain at least one content token.
func TestPropertyContentToken(t *testing.T) {
	tokens := []string{"alpha", "bravo", "kilo9", "zz_top"}
	templates := []string{"about %s", "%s (confirmed)", "reported as %s", "it is %s overall"}
	f := func(ti, wi uint8) bool {
		tok := tokens[int(wi)%len(tokens)]
		s := strings.Replace(templates[int(ti)%len(templates)], "%s", tok, 1)
		return ContentToken(s) == tok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: executing the same program twice on the same data yields
// identical metrics (full determinism of the executor).
func TestPropertyExecutorDeterminism(t *testing.T) {
	tb := messyTable(300, 42)
	tr, te := tb.Split(0.7, 7)
	src := `pipeline "det"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
train model=random_forest target="y" trees=10
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 5}
	a, err := ex.Execute(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ex.Execute(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	if a.TestAUC != b.TestAUC || a.TestAcc != b.TestAcc || a.Features != b.Features {
		t.Fatalf("executor nondeterministic: %+v vs %+v", a, b)
	}
}
