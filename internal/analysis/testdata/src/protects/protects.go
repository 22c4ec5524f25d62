// Package protects exercises the protect analyzer's Protect/Unprotect
// balance heuristic.
package protects

import "repro/internal/bdd"

type holder struct {
	root bdd.Ref
	k    *bdd.Kernel
}

// leakPlain pins a local that never escapes and never unpins it.
func leakPlain(k *bdd.Kernel, f, g bdd.Ref) {
	r := k.And(f, g)
	k.Protect(r) // want `Protect\(r\) has no matching Unprotect`
	_ = k.Err()
}

// goodBalanced pins and unpins.
func goodBalanced(k *bdd.Kernel, f, g bdd.Ref) {
	r := k.And(f, g)
	k.Protect(r)
	k.GC()
	k.Unprotect(r)
	_ = k.Err()
}

// goodEscapeField hands the pinned value to a longer-lived structure, which
// owns the balancing Unprotect (the index store pattern).
func goodEscapeField(h *holder, f bdd.Ref) {
	h.k.Protect(f)
	h.root = f
}

// goodEscapeReturn returns the pinned value; the caller owns the pin.
func goodEscapeReturn(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	r := k.And(f, g)
	k.Protect(r)
	return r
}

// goodOwnershipComment documents the transfer.
func goodOwnershipComment(k *bdd.Kernel, f bdd.Ref) {
	// ownership: pin passes to the caller's kernel teardown
	k.Protect(f)
	_ = k.Err()
}

// goodFieldPin pins a value already held by a structure; the structure's
// teardown owns the Unprotect.
func goodFieldPin(h *holder) {
	h.k.Protect(h.root)
	_ = h.k.Err()
}
