package difftest

import (
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/logic"
)

// soakSeeds is how many seeded cases TestDifferentialSoak generates; each
// case carries constraintsPerCase constraints checked against every target
// its seed draws at every step, so the default runs 70×8 = 560 (constraint,
// catalog) pairs. Raise it for a longer hunt:
// go test ./internal/difftest -run TestDifferentialSoak -seeds 2000
var soakSeeds = flag.Int("seeds", 70, "number of seeded cases TestDifferentialSoak runs")

// soakBase is the fixed seed base: case i derives from soakBase+i, so every
// run (and every CI run) replays the identical case sequence.
const soakBase = int64(0xD1FF)

func TestDifferentialSoak(t *testing.T) {
	pairs := 0
	RuleCoverage = logic.VerdictStats{}
	ReplicaCoverage.Advanced, ReplicaCoverage.Rebuilt = 0, 0
	ProjectionCoverage = index.Reads{}
	GCCoverage = 0
	drawn := map[string]int{"follower": 0, "service": 0, "shards=2": 0, "shards=3": 0, "debug": 0}
	together := map[string]int{} // cases by pair of drawn targets
	for i := 0; i < *soakSeeds; i++ {
		rng := rand.New(rand.NewSource(soakBase + int64(i)))
		c := GenerateCase(RNGChooser{Rand: rng})
		words := c.Config.words()
		for j, w := range words {
			drawn[w]++
			for _, w2 := range words[j+1:] {
				together[w+"+"+w2]++
			}
		}
		mm, err := RunCase(c)
		if err != nil {
			t.Fatalf("seed %d: hard error: %v\ncase:\n%s", i, err, SaveCase(c))
		}
		if mm != nil {
			sh := Shrink(c)
			name := fmt.Sprintf("fail-seed%d", i)
			path, werr := SaveCaseFile("testdata", name, sh)
			if werr != nil {
				path = "(save failed: " + werr.Error() + ")"
			}
			t.Fatalf("seed %d: %s\nshrunken repro saved to %s:\n%s", i, mm, path, SaveCase(sh))
		}
		pairs += len(c.Constraints)
	}
	t.Logf("soak: %d cases, %d (constraint, catalog) pairs, zero mismatches", *soakSeeds, pairs)
	var dims []string
	for w, n := range drawn {
		dims = append(dims, fmt.Sprintf("%s %d", w, n))
	}
	sort.Strings(dims)
	t.Logf("soak: cases by drawn target (every case checks the replica): %s", strings.Join(dims, ", "))
	var twos []string
	for w, n := range together {
		twos = append(twos, fmt.Sprintf("%s %d", w, n))
	}
	sort.Strings(twos)
	t.Logf("soak: cases by pair of drawn targets: %s", strings.Join(twos, ", "))
	t.Logf("soak: universal early projection fired in %d of %d primary validity verdicts",
		RuleCoverage.Projected, RuleCoverage.Validity)
	var routes []string
	for r, n := range RuleCoverage.Routes {
		routes = append(routes, fmt.Sprintf("%d %v", n, logic.Route(r)))
	}
	t.Logf("soak: primary witness calls by route: %s", strings.Join(routes, ", "))
	t.Logf("soak: the replica followed its primary in place after %d batches and was rebuilt after %d",
		ReplicaCoverage.Advanced, ReplicaCoverage.Rebuilt)
	t.Logf("soak: %d primary projection reads hit a projection maintained across an update batch", ProjectionCoverage.Maintained)
	t.Logf("soak: %d replica projection reads hit a projection adopted from the primary's export", ProjectionCoverage.Adopted)
	t.Logf("soak: the primary kernels of the debug cases ran %d collections", GCCoverage)
	if drawn["debug"] > 0 && GCCoverage == 0 {
		t.Fatal("the primary kernels never collected under DebugChecks: the soak checked no pin")
	}
	if *soakSeeds < 63 {
		return // too few seeds for the coverage floors below
	}
	for _, w := range dims {
		if strings.HasSuffix(w, " 0") {
			t.Fatalf("no seed drew %s: the soak never checked that target", strings.TrimSuffix(w, " 0"))
		}
	}
	if ProjectionCoverage.Maintained == 0 {
		t.Fatal("no projection read hit a maintained projection: the soak cross-checked recomputed projections only")
	}
	if ProjectionCoverage.Adopted == 0 {
		t.Fatal("no replica projection read hit an adopted projection: the soak cross-checked projections the replica computed itself only")
	}
	if ReplicaCoverage.Advanced == 0 {
		t.Fatal("no replica ever advanced in place: the soak cross-checked rebuilt replicas only")
	}
	if RuleCoverage.Routes[logic.RouteExpanded] == 0 {
		t.Fatal("no witness call expanded a projected violation set: the soak cross-checked full evaluations only")
	}
	if pairs < 500 {
		t.Fatalf("soak covered only %d (constraint, catalog) pairs, want >= 500", pairs)
	}
}

// TestCorpus replays every checked-in repro. Corpus files are shrunken
// witnesses of fixed divergences (plus representative generated cases), so
// they must pass cleanly; a reappearing mismatch is a regression.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.case"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files under testdata/")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			c, err := LoadCaseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mm, err := RunCase(c)
			if err != nil {
				t.Fatalf("hard error: %v", err)
			}
			if mm != nil {
				t.Fatalf("regression: %s", mm)
			}
		})
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	for i := 0; i < 25; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		c := GenerateCase(RNGChooser{Rand: rng})
		back, err := LoadCase([]byte(SaveCase(c)))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", i, err, SaveCase(c))
		}
		if !reflect.DeepEqual(c, back) {
			t.Fatalf("seed %d: round-trip changed the case\nbefore:\n%s\nafter:\n%s", i, SaveCase(c), SaveCase(back))
		}
	}
}

// TestConfigRoundTrip: every Config survives the corpus format, and a
// file without a config directive is replica-only.
func TestConfigRoundTrip(t *testing.T) {
	c := GenerateCase(RNGChooser{Rand: rand.New(rand.NewSource(5))})
	for _, shards := range []int{0, 2, 3, maxShards} {
		for bits := 0; bits < 8; bits++ {
			c.Config = Config{Follower: bits&1 != 0, Service: bits&2 != 0, Shards: shards, DebugChecks: bits&4 != 0}
			back, err := LoadCase([]byte(SaveCase(c)))
			if err != nil {
				t.Fatalf("%+v: %v\n%s", c.Config, err, SaveCase(c))
			}
			if back.Config != c.Config {
				t.Fatalf("config %+v came back as %+v", c.Config, back.Config)
			}
		}
	}
	for file, want := range map[string]Config{
		"fail-seed505.case":                     {},
		"sqlengine-false-conjunct.case":         {},
		"sqlengine-false-conjunct-targets.case": {Follower: true, Service: true, Shards: 3, DebugChecks: true},
	} {
		c, err := LoadCaseFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if c.Config != want {
			t.Errorf("%s: config %+v, want %+v", file, c.Config, want)
		}
	}
}

// TestLoadCaseRejects: LoadCase refuses what SaveCase could not write back
// — an identifier that is not a bare word — and a config directive naming
// an unknown target, a target twice, or a shard count out of range.
func TestLoadCaseRejects(t *testing.T) {
	for _, text := range []string{
		`table "a b"`,
		`table ""`,
		`ordering "x y"`,
		`constraint "c #1" "true"`,
		"table T\ncol \"#c\" D",
		"domain \"\\\"D\" \"v\"",
		"config replica",
		"config shards=1",
		"config shards=5",
		"config shards=two",
		"config follower follower",
		"config follower\nconfig service",
	} {
		if _, err := LoadCase([]byte(text)); err == nil {
			t.Errorf("LoadCase accepted %q", text)
		}
	}
}

// TestGenerateDeterministic pins the generator: the same seed must yield
// the identical case (corpus names reference soak seeds, so drift would
// orphan them).
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 10; i++ {
		a := GenerateCase(RNGChooser{Rand: rand.New(rand.NewSource(int64(i)))})
		b := GenerateCase(RNGChooser{Rand: rand.New(rand.NewSource(int64(i)))})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", i)
		}
	}
}

// TestByteChooserTotal: any byte string (including none) decodes to a case
// that builds and runs — the contract FuzzDifferential relies on.
func TestByteChooserTotal(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0},
		{255, 255, 255, 255},
		[]byte("arbitrary fuzz bytes, not a case encoding"),
	}
	rng := rand.New(rand.NewSource(7))
	for len(inputs) < 12 {
		n := rng.Intn(200)
		b := make([]byte, n)
		rng.Read(b)
		inputs = append(inputs, b)
	}
	for i, data := range inputs {
		c := GenerateCase(&ByteChooser{Data: data})
		if mm, err := RunCase(c); err != nil {
			t.Fatalf("input %d: hard error: %v", i, err)
		} else if mm != nil {
			t.Fatalf("input %d: %s", i, mm)
		}
	}
}

// TestShrinkPreservesPassing: shrinking a non-failing case is the identity.
func TestShrinkPreservesPassing(t *testing.T) {
	c := GenerateCase(RNGChooser{Rand: rand.New(rand.NewSource(3))})
	sh := Shrink(c)
	if !reflect.DeepEqual(c, sh) {
		t.Fatal("Shrink modified a case that does not fail")
	}
}

// TestFormulaShrinksSmaller: every candidate is strictly smaller than its
// source, the termination argument of the formula pass.
func TestFormulaShrinksSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var size func(f logic.Formula) int
	size = func(f logic.Formula) int {
		switch g := f.(type) {
		case logic.Truth:
			return 0
		case logic.Not:
			return 1 + size(g.F)
		case logic.And:
			return 1 + size(g.L) + size(g.R)
		case logic.Or:
			return 1 + size(g.L) + size(g.R)
		case logic.Implies:
			return 1 + size(g.L) + size(g.R)
		case logic.Quant:
			return 1 + len(g.Vars) + size(g.F)
		case logic.In:
			return 1 + len(g.Values)
		default:
			return 1
		}
	}
	for i := 0; i < 50; i++ {
		c := GenerateCase(RNGChooser{Rand: rand.New(rand.NewSource(int64(rng.Intn(1 << 16))))})
		for _, ct := range c.Constraints {
			f, err := logic.Parse(ct.Source)
			if err != nil {
				t.Fatalf("generated constraint does not parse: %v", err)
			}
			for _, g := range formulaShrinks(f) {
				if size(g) >= size(f) {
					t.Fatalf("shrink candidate %s not smaller than %s", g, f)
				}
			}
		}
	}
}
