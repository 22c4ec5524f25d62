package bdd

import "testing"

// The automatic collection roots the pending operation's operands: an
// unprotected operand survives it whole, and nothing else does once the
// caches are cleared.
func TestGCExtraRoots(t *testing.T) {
	k := New(Config{Vars: 8})
	f := k.Or(k.And(k.Var(0), k.Var(3)), k.Xor(k.Var(5), k.NVar(7)))
	n := k.NodeCount(f)
	k.ClearCaches()
	k.collect(f) // unprotected but passed as an explicit root
	if k.NodeCount(f) != n || k.Size() != n+2 {
		t.Fatalf("extra root not preserved alone: %d of its %d nodes, %d live", k.NodeCount(f), n, k.Size())
	}
	k.collect()
	if k.Size() != 2 {
		t.Fatalf("%d live nodes after a rootless collection, want the two terminals", k.Size())
	}
}
