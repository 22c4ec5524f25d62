package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// binDir is the temporary directory buildOnce builds into, if it has run.
var binDir string

// TestMain removes binDir once the tests are done.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildOnce compiles the cvcheck binary once per test run.
var buildOnce = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "cvcheck")
	if err != nil {
		return "", err
	}
	binDir = dir
	bin := filepath.Join(dir, "cvcheck")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", &buildError{string(out), err}
	}
	return bin, nil
})

type buildError struct {
	out string
	err error
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + e.out }

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEndToEnd(t *testing.T) {
	bin, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cust := writeFile(t, dir, "cust.csv", strings.Join([]string{
		"city,areacode,state",
		"Toronto,416,Ontario",
		"Toronto,647,Ontario",
		"Oshawa,905,Ontario",
		"Newark,973,NJ",
		"Newark,416,NJ", // violates nj_codes
		"",
	}, "\n"))
	rules := writeFile(t, dir, "rules.txt", `
		constraint nj_codes:
		    forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908"}.
		constraint toronto_ontario:
		    forall a, s: CUST("Toronto", a, s) => s = "Ontario".
	`)
	cmd := exec.Command(bin, "-table", "CUST="+cust, "-constraints", rules, "-witnesses", "3")
	out, err := cmd.CombinedOutput()
	text := string(out)
	// Exit code 1 signals violations found.
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("expected exit code 1, got %v\n%s", err, text)
	}
	for _, want := range []string{
		"loaded CUST: 5 rows",
		"nj_codes",
		"VIOLATED",
		"toronto_ontario",
		"ok",
		"Newark",
		"416",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "method=sql") {
		t.Errorf("constraints should have been checked via BDD:\n%s", text)
	}
}

func TestEndToEndCleanDatabase(t *testing.T) {
	bin, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cust := writeFile(t, dir, "cust.csv", "city,areacode\nToronto,416\n")
	rules := writeFile(t, dir, "rules.txt",
		`constraint ok: forall c, a: CUST(c, a) => a in {"416"}.`)
	cmd := exec.Command(bin, "-table", "CUST="+cust, "-constraints", rules)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("expected success, got %v\n%s", err, out)
	}
}

func TestEndToEndBadFlags(t *testing.T) {
	bin, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin) // no tables, no constraints
	if err := cmd.Run(); err == nil {
		t.Fatal("expected failure with no arguments")
	}
	cmd = exec.Command(bin, "-table", "bad-spec", "-constraints", "x")
	if err := cmd.Run(); err == nil {
		t.Fatal("expected failure with malformed -table")
	}
}

// TestForeignKeyAcrossNames checks the foreign keys of dolt's
// verify-constraints schema, which reference columns of another name: -share
// puts child1's parent1_v1 and parent2_v1 in the domain of the parents' v1.
// parent1 lacks v1 = 1, so only child1_parent1 is violated, by child1's first
// row.
func TestForeignKeyAcrossNames(t *testing.T) {
	bin, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	parent1 := writeFile(t, dir, "parent1.csv", "pk,v1\n2,2\n3,3\n")
	parent2 := writeFile(t, dir, "parent2.csv", "pk,v1\n1,1\n2,2\n3,3\n")
	child1 := writeFile(t, dir, "child1.csv", "pk,parent1_v1,parent2_v1\n1,1,1\n2,2,2\n")
	rules := writeFile(t, dir, "rules.txt", `
		constraint child1_parent1:
		    forall p, a, b: child1(p, a, b) => exists k: parent1(k, a).
		constraint child1_parent2:
		    forall p, a, b: child1(p, a, b) => exists k: parent2(k, b).
	`)
	cmd := exec.Command(bin, "-table", "parent1="+parent1, "-table", "parent2="+parent2, "-table", "child1="+child1,
		"-share", "v1,parent1_v1=v1,parent2_v1=v1", "-constraints", rules)
	out, err := cmd.CombinedOutput()
	text := string(out)
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("expected exit code 1, got %v\n%s", err, text)
	}
	for _, re := range []string{
		`(?m)^child1_parent1 +VIOLATED \(method=bdd`,
		`(?m)^  witness: \[p a b\] = \[1 1 1\]$`,
		`(?m)^child1_parent2 +ok +\(method=bdd`,
	} {
		if !regexp.MustCompile(re).MatchString(text) {
			t.Errorf("output does not match %s:\n%s", re, text)
		}
	}
	if strings.Count(text, "witness:") != 1 {
		t.Errorf("want exactly one witness:\n%s", text)
	}
}
