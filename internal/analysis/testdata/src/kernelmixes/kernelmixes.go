// Package kernelmixes exercises the kernelmix analyzer: Refs minted by one
// kernel must not reach methods of another, except through CopyTo.
package kernelmixes

import "repro/internal/bdd"

type store struct {
	kernel *bdd.Kernel
}

// badCross mints a Ref on k1 and hands it to k2.
func badCross(k1, k2 *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	r := k1.And(f, g)
	return k2.Not(r) // want `Ref minted by kernel "k1" passed to method Not of kernel "k2"`
}

// badCrossViaCopy propagates the tag through a plain copy.
func badCrossViaCopy(k1, k2 *bdd.Kernel, f bdd.Ref) bdd.Ref {
	r := k1.Not(f)
	s := r
	return k2.Not(s) // want `Ref minted by kernel "k1" passed to method Not of kernel "k2"`
}

// badCrossField mints on a field-held kernel and hands to a parameter kernel.
func badCrossField(st *store, k2 *bdd.Kernel, f bdd.Ref) bdd.Ref {
	r := st.kernel.Not(f)
	return k2.Not(r) // want `Ref minted by kernel "st.kernel" passed to method Not of kernel "k2"`
}

// goodSameKernel keeps the Ref on the kernel that minted it.
func goodSameKernel(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	r := k.And(f, g)
	return k.Not(r)
}

// goodCopyTo is the sanctioned bridge: the result slice is minted by the
// destination kernel, so using its elements on dst is fine, and passing the
// source-minted root to CopyTo itself is fine too.
func goodCopyTo(src, dst *bdd.Kernel, f bdd.Ref) bdd.Ref {
	r := src.Not(f)
	adopted, err := src.CopyTo(dst, r)
	if err != nil {
		return bdd.Invalid
	}
	return dst.Not(adopted[0])
}

// goodAlias mints through a local alias of a field-held kernel and uses the
// field spelling afterwards; both denote the same kernel.
func goodAlias(st *store, f, g bdd.Ref) bdd.Ref {
	k := st.kernel
	r := k.And(f, g)
	return st.kernel.Not(r)
}

// goodReorderSameKernel: dynamic reordering preserves externally held Refs
// (sifting rewires levels, never frees pinned nodes), so a Ref minted
// before Reorder stays usable on the same kernel afterwards.
func goodReorderSameKernel(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	r := k.And(f, g)
	k.Reorder()
	return k.Not(r)
}

// badCrossAfterReorder: reordering the destination kernel does not launder
// a foreign Ref onto it.
func badCrossAfterReorder(k1, k2 *bdd.Kernel, f bdd.Ref) bdd.Ref {
	r := k1.Not(f)
	k2.Reorder()
	return k2.Not(r) // want `Ref minted by kernel "k1" passed to method Not of kernel "k2"`
}

// mk mints on its kernel parameter; the ReturnsParam summary tags the
// result at every call site from the corresponding argument.
func mk(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	return k.And(f, g)
}

// consume hands its Ref parameter to its kernel parameter's methods; the
// RefParams summary lets call sites check the pairing.
func consume(k *bdd.Kernel, r bdd.Ref) bdd.Ref {
	return k.Not(r)
}

// wrap forwards to consume; the pairing propagates through the wrapper.
func wrap(k *bdd.Kernel, r bdd.Ref) bdd.Ref {
	return consume(k, r)
}

// badHelperMint: the helper's result is minted by k1 but used on k2.
func badHelperMint(k1, k2 *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	r := mk(k1, f, g)
	return k2.Not(r) // want `Ref minted by kernel "k1" passed to method Not of kernel "k2"`
}

// badHelperConsume: the callee's pairing flags mismatched arguments.
func badHelperConsume(k1, k2 *bdd.Kernel, f bdd.Ref) bdd.Ref {
	r := k1.Not(f)
	return consume(k2, r) // want `Ref minted by kernel "k1" passed to consume of kernel "k2"`
}

// badWrappedConsume: the pairing survives one level of wrapping.
func badWrappedConsume(k1, k2 *bdd.Kernel, f bdd.Ref) bdd.Ref {
	r := k1.Not(f)
	return wrap(k2, r) // want `Ref minted by kernel "k1" passed to wrap of kernel "k2"`
}

// goodHelperRoundTrip keeps helper-minted Refs on the minting kernel.
func goodHelperRoundTrip(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	r := mk(k, f, g)
	return consume(k, r)
}

// goodSetOrderSameKernel: an explicit order install is a same-kernel
// mutation; previously minted Refs remain valid on that kernel.
func goodSetOrderSameKernel(k *bdd.Kernel, f bdd.Ref) bdd.Ref {
	r := k.Not(f)
	if err := k.SetOrder([]int{0}); err != nil {
		return bdd.Invalid
	}
	return k.And(r, f)
}
