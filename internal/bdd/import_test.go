package bdd_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
)

// import_test.go checks the cross-kernel transfer: an Export and an Import
// must preserve BDD structure exactly (SatCount, node count, evaluation on
// every assignment), share imported structure through the destination's
// unique table, and respect the destination's node budget.

// transfer moves roots from src into dst the way replication does: one
// Export, one Import.
func transfer(src, dst *bdd.Kernel, roots ...bdd.Ref) ([]bdd.Ref, error) {
	img, err := src.Export(roots...)
	if err != nil {
		return nil, err
	}
	return dst.Import(img)
}

func TestImportQuickPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	src := bdd.New(bdd.Config{Vars: qVars})
	dst := bdd.New(bdd.Config{Vars: qVars})
	all := assignments(qVars)
	property := func(a qExpr) bool {
		f := src.Protect(a.e.build(src))
		defer src.Unprotect(f)
		got, err := transfer(src, dst, f)
		if err != nil {
			t.Fatalf("transfer: %v", err)
		}
		g := dst.Protect(got[0])
		defer dst.Unprotect(g)
		if src.SatCount(f) != dst.SatCount(g) {
			return false
		}
		if src.NodeCount(f) != dst.NodeCount(g) {
			return false
		}
		// Random assignments plus the exhaustive set (qVars is small).
		for _, asn := range all {
			if src.Eval(f, asn) != dst.Eval(g, asn) {
				return false
			}
		}
		for i := 0; i < 16; i++ {
			asn := make([]bool, qVars)
			for j := range asn {
				asn[j] = rng.Intn(2) == 1
			}
			if src.Eval(f, asn) != dst.Eval(g, asn) {
				return false
			}
		}
		// Importing again dedups through the destination's unique table:
		// identical refs come back and no nodes are allocated.
		before := dst.Size()
		again, err := transfer(src, dst, f)
		if err != nil {
			t.Fatalf("second transfer: %v", err)
		}
		return again[0] == g && dst.Size() == before
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(qExpr{e: randExpr(rng, qVars, 2+r.Intn(12))})
		},
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestImportIntoPopulatedKernelQuick is the adoption scenario of the read
// pool: the destination kernel already holds live protected BDDs (a replica
// with older indices) when new roots are imported. The import must preserve
// SatCount, node count, and evaluation on every assignment, while the
// destination's pre-existing roots keep evaluating exactly as before —
// imported structure may *share* their nodes but must never mutate them.
func TestImportIntoPopulatedKernelQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(613))
	all := assignments(qVars)
	property := func(a, b qExpr) bool {
		src := bdd.New(bdd.Config{Vars: qVars})
		dst := bdd.New(bdd.Config{Vars: qVars})
		// Populate the destination first and record resident behavior.
		resident := dst.Protect(b.e.build(dst))
		residentVals := make([]bool, len(all))
		for i, asn := range all {
			residentVals[i] = dst.Eval(resident, asn)
		}
		residentNodes := dst.NodeCount(resident)

		f := src.Protect(a.e.build(src))
		got, err := transfer(src, dst, f)
		if err != nil {
			t.Fatalf("transfer: %v", err)
		}
		g := dst.Protect(got[0])
		if src.SatCount(f) != dst.SatCount(g) {
			return false
		}
		if src.NodeCount(f) != dst.NodeCount(g) {
			return false
		}
		for _, asn := range all {
			if src.Eval(f, asn) != dst.Eval(g, asn) {
				return false
			}
		}
		for i := 0; i < 16; i++ {
			asn := make([]bool, qVars)
			for j := range asn {
				asn[j] = rng.Intn(2) == 1
			}
			if src.Eval(f, asn) != dst.Eval(g, asn) {
				return false
			}
		}
		// The resident root is bit-for-bit undisturbed.
		for i, asn := range all {
			if dst.Eval(resident, asn) != residentVals[i] {
				return false
			}
		}
		if dst.NodeCount(resident) != residentNodes {
			return false
		}
		// A GC with both roots protected must keep both alive.
		dst.GC()
		for i, asn := range all {
			if dst.Eval(resident, asn) != residentVals[i] || src.Eval(f, asn) != dst.Eval(g, asn) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(qExpr{e: randExpr(rng, qVars, 2+r.Intn(12))})
			args[1] = reflect.ValueOf(qExpr{e: randExpr(rng, qVars, 2+r.Intn(12))})
		},
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestImportFromManyGoroutines: an Image is only read by Import, so replica
// workers import one concurrently, each into its own kernel.
func TestImportFromManyGoroutines(t *testing.T) {
	const nv = 10
	src := bdd.New(bdd.Config{Vars: nv})
	f := src.Protect(randExpr(rand.New(rand.NewSource(7)), nv, 40).build(src))
	img, err := src.Export(f)
	if err != nil {
		t.Fatal(err)
	}
	sat, nodes := src.SatCount(f), src.NodeCount(f)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := bdd.New(bdd.Config{Vars: nv})
			got, err := dst.Import(img)
			if err != nil {
				t.Error(err)
				return
			}
			if dst.SatCount(got[0]) != sat || dst.NodeCount(got[0]) != nodes {
				t.Error("a concurrent import changed the function")
			}
		}()
	}
	wg.Wait()
}

func TestImportPreservesSharingAcrossRoots(t *testing.T) {
	const nv = 8
	src := bdd.New(bdd.Config{Vars: nv})
	common := src.And(src.Var(2), src.Or(src.Var(4), src.NVar(6)))
	f := src.Protect(src.Or(src.Var(0), common))
	g := src.Protect(src.And(src.NVar(1), common))

	dst := bdd.New(bdd.Config{Vars: nv})
	got, err := transfer(src, dst, f, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d roots, want 2", len(got))
	}
	if want := src.SharedNodeCount(f, g); dst.SharedNodeCount(got[0], got[1]) != want {
		t.Fatalf("shared node count %d, want %d", dst.SharedNodeCount(got[0], got[1]), want)
	}
}

func TestImportIntoExporterIsIdentity(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 4})
	f := k.And(k.Var(0), k.Var(3))
	got, err := transfer(k, k, f, bdd.True)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != f || got[1] != bdd.True {
		t.Fatalf("importing into the exporter changed refs: %v", got)
	}
}

func TestImportRespectsBudget(t *testing.T) {
	const nv = 12
	src := bdd.New(bdd.Config{Vars: nv})
	// A parity chain has 2*nv internal nodes — far beyond a budget of 4.
	f := src.Var(0)
	for i := 1; i < nv; i++ {
		f = src.Xor(f, src.Var(i))
	}
	dst := bdd.New(bdd.Config{Vars: nv, NodeBudget: 4})
	if _, err := transfer(src, dst, f); !errors.Is(err, bdd.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if !errors.Is(dst.Err(), bdd.ErrBudget) {
		t.Fatalf("dst.Err() = %v, want ErrBudget", dst.Err())
	}
}

func TestImportRejectsNarrowKernel(t *testing.T) {
	src := bdd.New(bdd.Config{Vars: 8})
	f := src.Var(6)
	dst := bdd.New(bdd.Config{Vars: 4})
	if _, err := transfer(src, dst, f); err == nil {
		t.Fatal("import into a kernel with too few variables must fail")
	}
}

// TestImportNarrowerPristineKernel: a source kernel keeps scratch variables
// below the structure it exports (the production evaluator does this), and
// the destination allocates only the exported blocks' variables. The
// function imports into the narrower kernel intact; a root that really uses
// a scratch variable does not fit it.
func TestImportNarrowerPristineKernel(t *testing.T) {
	const nv, scratch = 6, 4
	rng := rand.New(rand.NewSource(16))
	src := bdd.New(bdd.Config{Vars: nv + scratch})
	e := randExpr(rng, nv, 25)
	f := src.Protect(e.build(src))
	src.Protect(src.And(src.Var(nv), src.Var(nv+1))) // scratch structure too
	dst := bdd.New(bdd.Config{Vars: nv})
	got, err := transfer(src, dst, f)
	if err != nil {
		t.Fatalf("import into a narrower kernel: %v", err)
	}
	for _, a := range assignments(nv) {
		if dst.Eval(got[0], a) != e.eval(a) {
			t.Fatalf("the imported function differs at %v", a)
		}
	}
	g := src.Protect(src.Var(nv + 2))
	if _, err := transfer(src, bdd.New(bdd.Config{Vars: nv}), g); err == nil {
		t.Fatal("a root on a scratch variable imported into a kernel without it")
	}
}

// Importing a large image into a fresh kernel sizes its tables once: the
// five node slices and the buckets are allocated one time each, beside
// Import's own two Ref slices, where growing by doubling took dozens.
func TestImportSizesAFreshKernelOnce(t *testing.T) {
	const vars = 40
	src := bdd.New(bdd.Config{Vars: vars})
	rng := rand.New(rand.NewSource(5))
	f := bdd.False
	for n := 0; n%512 != 0 || src.NodeCount(f) < 100_000; n++ {
		cube := bdd.True
		for v := vars - 1; v >= 0; v-- {
			if rng.Intn(2) == 0 {
				cube = src.And(src.NVar(v), cube)
			} else {
				cube = src.And(src.Var(v), cube)
			}
		}
		f = src.Or(f, cube)
	}
	img, err := src.Export(f)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	kernels := make([]*bdd.Kernel, runs+1) // AllocsPerRun runs once more to warm up
	for i := range kernels {
		kernels[i] = bdd.New(bdd.Config{Vars: vars, CacheSize: 1 << 10}) // caches that do not grow
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := kernels[i].Import(img); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 8 {
		t.Errorf("importing %d nodes into a fresh kernel made %.0f allocations, want at most 8", src.NodeCount(f), allocs)
	}
}
