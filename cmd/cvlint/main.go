// Command cvlint is the repository's domain-specific static analysis suite.
//
// It enforces the contracts of the BDD kernel that Go's type system cannot
// express (see DESIGN.md, "Static contracts"):
//
//	sentinelcmp  errors.Is for wrapped sentinel errors, never == / !=
//	protect      Protect balanced by Unprotect or a documented transfer
//	kernelowner  structural kernel/checker mutation stays on the owner goroutine
//	lockorder    mutex acquisition order is globally acyclic
//
// Each analyzer must flag a fault seeded into a real function of this module
// (faults_test.go), or it does not belong in the suite; a contract that a
// runtime test catches deterministically is left to that test (DESIGN.md §8).
//
// cvlint is usable two ways:
//
//	cvlint [packages]              standalone: drives `go vet -vettool` on
//	                               the given packages (default ./...)
//	go vet -vettool=$(which cvlint) ./...
//	                               as a vet tool, the canonical CI form
//
// Both forms run the same analyzers over type-checked packages; the
// standalone form simply re-executes itself through `go vet`, which supplies
// type information for every package from the build cache, and facts
// exported by one package's analysis travel to its importers through vet's
// .vetx files, so the interprocedural analyzers see across package
// boundaries. Suppress a deliberate exception with a justified directive on
// or above the line (several analyzers may be named, comma-separated):
//
//	//lint:ignore protect kernel dies with this function; pin is intentional
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/kernelowner"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/protect"
	"repro/internal/analysis/sentinelcmp"
	"repro/internal/analysis/unitchecker"
)

// Suite is the full cvlint analyzer set, in reporting order.
var suite = []*analysis.Analyzer{
	sentinelcmp.Analyzer,
	protect.Analyzer,
	kernelowner.Analyzer,
	lockorder.Analyzer,
}

func main() {
	args := os.Args[1:]
	// Vet-tool protocol invocations come from cmd/go and are exactly one
	// argument; everything else is the human-facing standalone form.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full", args[0] == "-flags", filepath.Ext(args[0]) == ".cfg":
			unitchecker.Main("cvlint", suite)
			return
		case args[0] == "help", args[0] == "-h", args[0] == "--help":
			usage()
			return
		}
	}
	os.Exit(standalone(args))
}

func usage() {
	fmt.Printf("cvlint: static analysis for this repository's BDD-kernel contracts\n\nAnalyzers:\n")
	for _, a := range suite {
		fmt.Printf("  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Printf("\nUsage:\n  cvlint [packages]    (default ./...)\n  go vet -vettool=$(which cvlint) [packages]\n")
}

// standalone re-executes cvlint through `go vet -vettool=self`: cmd/go
// loads, compiles and describes each package, then calls back into the
// unitchecker protocol above with full type information. cvlint has no
// flags of its own.
func standalone(pkgs []string) int {
	for _, arg := range pkgs {
		if strings.HasPrefix(arg, "-") {
			fmt.Fprintf(os.Stderr, "cvlint: unknown flag %s\n", arg)
			usage()
			return 2
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cvlint: cannot locate own executable: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, pkgs...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "cvlint: %v\n", err)
		return 2
	}
	return 0
}
