// Package kernelmixes exercises the kernelmix analyzer: Refs minted by one
// kernel must not reach methods of another; BDDs cross as a bdd.Image.
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

// goodImage is the sanctioned bridge: the image carries no Ref, so the
// export speaks to src alone and the import to dst alone.
func goodImage(src, dst *bdd.Kernel, f bdd.Ref) bdd.Ref {
	img, err := src.Export(src.Not(f))
	if err != nil {
		return bdd.Invalid
	}
	adopted, err := dst.Import(img)
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

// goodClearCachesSameKernel: flushing the operation caches leaves every
// Ref where it was, so a Ref minted before ClearCaches stays usable on the
// same kernel afterwards.
func goodClearCachesSameKernel(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	r := k.And(f, g)
	k.ClearCaches()
	return k.Not(r)
}

// badCrossAfterClearCaches: flushing the destination kernel's caches does
// not launder a foreign Ref onto it.
func badCrossAfterClearCaches(k1, k2 *bdd.Kernel, f bdd.Ref) bdd.Ref {
	r := k1.Not(f)
	k2.ClearCaches()
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

// goodAddVarsSameKernel: growing the variable set is a same-kernel
// mutation; previously minted Refs remain valid on that kernel.
func goodAddVarsSameKernel(k *bdd.Kernel, f bdd.Ref) bdd.Ref {
	r := k.Not(f)
	if k.AddVars(1) < 0 {
		return bdd.Invalid
	}
	return k.And(r, f)
}
