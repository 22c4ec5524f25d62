package logic

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// seedParseCorpus seeds the fuzzer with every grammar production the
// repository actually exercises: hand-picked edge cases, the constraint
// strings from the package's own tests, and every raw-string literal in
// core's runnable examples (which embed their constraint programs as
// backtick literals).
func seedParseCorpus(f *testing.F) {
	for _, seed := range []string{
		// Edge cases.
		`forall x: P(x, "a") => exists y: Q(y) and R(x, y)`,
		`x in {"a", "b"}`,
		`not (P(x) or Q(x)) and true`,
		`P(_, _, x)`,
		`constraint c: forall x: P(x).`,
		`x != "v" => false`,
		"(((((", "forall", `"unterminated`, "a=b=c", "# comment only",
		// The round-trip suite from parse_test.go.
		`P(x, "a")`,
		`x = "v"`,
		`x != y`,
		`x in {"a", "b", "c"}`,
		`not (P(x) or Q(x))`,
		`forall x, y: (P(x) and Q(y)) or not R(x, y)`,
		`exists x: P(x) => false`,
		`true and false`,
		`P(x) or Q(x) and R(x) => S(x)`,
		`forall x: P(x) => Q(x)`,
		`forall x: P(x, y) and (exists z: Q(z, w))`,
		`P(x) and (forall x: Q(x))`,
		`x = "a\"b"`,
		// The paper's §5.2 constraint classes over the customer indices.
		`forall a, c: NCS(a, c, "NJ") => a in {"201", "973", "908"}`,
		`forall c, s1, s2: NCS(_, c, s1) and NCS(_, c, s2) => s1 = s2`,
		`forall c, s, z: CSZ(c, s, z) => exists s2: NCS(_, c, s2) and s2 = s`,
	} {
		f.Add(seed)
	}
	// Example programs: every backtick literal is either a constraint file
	// or a single formula; either way it is a grammar-shaped seed.
	src, err := os.ReadFile(filepath.Join("..", "core", "example_test.go"))
	if err != nil {
		f.Fatal(err)
	}
	for _, lit := range regexp.MustCompile("(?s)`[^`]*`").FindAllString(string(src), -1) {
		f.Add(lit[1 : len(lit)-1])
	}
}

// FuzzParse: the parser must never panic; anything it accepts must print to
// a form it accepts again, the printed form must be a fixed point, and
// re-parsing it must rebuild the *same AST* — printing loses nothing.
func FuzzParse(f *testing.F) {
	seedParseCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		formula, err := Parse(src)
		if err != nil {
			return
		}
		printed := formula.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form %q does not re-parse: %v", printed, err)
		}
		if again.String() != printed {
			t.Fatalf("print not a fixed point: %q -> %q", printed, again.String())
		}
		if !reflect.DeepEqual(again, formula) {
			t.Fatalf("re-parse changed the AST of %q:\n  first:  %#v\n  second: %#v", printed, formula, again)
		}
	})
}

// FuzzParseConstraints: the constraints-file parser must never panic, and
// each accepted constraint must satisfy the same round-trip law as Parse.
func FuzzParseConstraints(f *testing.F) {
	f.Add("constraint a: P(x).\nconstraint b: Q(y)")
	f.Add("constraint")
	f.Add("# nothing")
	f.Fuzz(func(t *testing.T, src string) {
		cs, err := ParseConstraints(src)
		if err != nil {
			return
		}
		for _, c := range cs {
			printed := c.F.String()
			again, err := Parse(printed)
			if err != nil {
				t.Fatalf("constraint %s: printed form %q does not re-parse: %v", c.Name, printed, err)
			}
			if !reflect.DeepEqual(again, c.F) {
				t.Fatalf("constraint %s: re-parse changed the AST of %q", c.Name, printed)
			}
		}
	})
}
