package logic

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestLexAllocatesOnceForTheTokens lexes a request-sized constraint text of
// the kind an ad-hoc check carries: string literals without escapes are
// slices of the source and the token slice is sized from it up front, so the
// text costs a handful of allocations and about as many bytes as its tokens.
func TestLexAllocatesOnceForTheTokens(t *testing.T) {
	var sb strings.Builder
	for i := 0; sb.Len() < 3000; i++ {
		fmt.Fprintf(&sb, "constraint adhoc_%d: forall a, c, s: CUST(a, _, c, s, _) and a in {\"416\", \"647\", \"905\"} => s = \"Ontario\".\n", i)
		fmt.Fprintf(&sb, "constraint fd_%d: forall a, c1, c2: CUST(a, _, c1, _, _) and CUST(a, _, c2, _, _) => c1 = c2.\n", i)
	}
	src := sb.String()
	toks, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() { lex(src) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		lex(src)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes of text, %d tokens: %.0f allocations, %d bytes per lex", len(src), len(toks), allocs, bytes)
	if allocs > 4 {
		t.Errorf("lex made %.0f allocations, want at most 4", allocs)
	}
	// Doubling a token slice from empty to this text's tokens costs about
	// twice their size. One slice of half a token per byte of text, with a
	// fifth on top for the allocator's size classes, is under half that.
	if limit := uint64(len(src)) * uint64(unsafe.Sizeof(token{})) / 2 * 6 / 5; bytes > limit {
		t.Errorf("lex allocated %d bytes, want at most %d", bytes, limit)
	}
}
