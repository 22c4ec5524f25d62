// Package tempmarks exercises the tempmark analyzer's all-paths
// TempMark/TempRelease pairing check.
package tempmarks

import "repro/internal/bdd"

// leakEarlyReturn releases on the happy path but leaks on the early return.
func leakEarlyReturn(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	mark := k.TempMark()
	h := k.TempKeep(k.And(f, g))
	if h == bdd.Invalid {
		return bdd.Invalid // want `function exits without TempRelease\(mark\)`
	}
	r := k.Or(h, f)
	k.TempRelease(mark)
	return r
}

// leakFallOffEnd never releases at all.
func leakFallOffEnd(k *bdd.Kernel, f bdd.Ref) {
	mark := k.TempMark()
	k.TempKeep(k.Not(f))
	_ = mark
} // want `function exits without TempRelease\(mark\)`

// leakPanic releases on the normal path but not on the panicking branch.
func leakPanic(k *bdd.Kernel, f bdd.Ref, bad bool) {
	mark := k.TempMark()
	if bad {
		panic("invariant violated") // want `function exits without TempRelease\(mark\)`
	}
	k.TempRelease(mark)
}

// leakOneBranch releases in only one arm of the if.
func leakOneBranch(k *bdd.Kernel, f, g bdd.Ref, which bool) bdd.Ref {
	mark := k.TempMark()
	var r bdd.Ref
	if which {
		r = k.And(f, g)
		k.TempRelease(mark)
	} else {
		r = k.Or(f, g)
	}
	return r // want `function exits without TempRelease\(mark\)`
}

// goodDefer is the canonical pattern: the deferred release covers every
// exit, including panics from callees.
func goodDefer(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	mark := k.TempMark()
	defer k.TempRelease(mark)
	h := k.TempKeep(k.And(f, g))
	if h == bdd.Invalid {
		return bdd.Invalid
	}
	return k.Or(h, f)
}

// goodAllPaths releases explicitly on each path.
func goodAllPaths(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	mark := k.TempMark()
	h := k.TempKeep(k.And(f, g))
	if h == bdd.Invalid {
		k.TempRelease(mark)
		return bdd.Invalid
	}
	r := k.Or(h, f)
	k.TempRelease(mark)
	return r
}

// goodRollingLoop is the accumulator idiom from the experiments package: a
// defer guards the function while the loop re-releases and re-keeps.
func goodRollingLoop(k *bdd.Kernel, fs []bdd.Ref) bdd.Ref {
	mark := k.TempMark()
	defer k.TempRelease(mark)
	acc := bdd.False
	for _, f := range fs {
		nf := k.Or(acc, f)
		if nf == bdd.Invalid {
			return bdd.Invalid
		}
		k.TempRelease(mark)
		acc = k.TempKeep(nf)
	}
	return acc
}

// goodDeferClosure releases inside a deferred closure.
func goodDeferClosure(k *bdd.Kernel, f bdd.Ref) {
	mark := k.TempMark()
	defer func() {
		k.TempRelease(mark)
	}()
	k.TempKeep(k.Not(f))
}

// goodSwitch releases in every case including default.
func goodSwitch(k *bdd.Kernel, f bdd.Ref, n int) {
	mark := k.TempMark()
	switch n {
	case 0:
		k.TempRelease(mark)
	default:
		k.TempKeep(k.Not(f))
		k.TempRelease(mark)
	}
}

// leakSwitchNoDefault releases in the only case, but a missed tag falls
// past the switch unreleased.
func leakSwitchNoDefault(k *bdd.Kernel, f bdd.Ref, n int) {
	mark := k.TempMark()
	k.TempKeep(k.Not(f))
	switch n {
	case 0:
		k.TempRelease(mark)
	}
} // want `function exits without TempRelease\(mark\)`

// goodGCInsideMark: collecting between TempKeep and TempRelease is legal —
// the temp set is part of the collection's root set, so kept intermediates
// survive it and the deferred release still pairs the mark.
func goodGCInsideMark(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	mark := k.TempMark()
	defer k.TempRelease(mark)
	h := k.TempKeep(k.And(f, g))
	k.GC()
	return k.Or(h, f)
}

// finish is an all-paths releaser of its mark parameter; the summary lets
// callers discharge a mark by calling it.
func finish(k *bdd.Kernel, mark int) {
	k.TempRelease(mark)
}

// finishChain releases through another releaser; summaries compose.
func finishChain(k *bdd.Kernel, mark int) {
	finish(k, mark)
}

// finishMaybe releases on only one branch, so it is not a releaser and
// calling it proves nothing.
func finishMaybe(k *bdd.Kernel, mark int, ok bool) {
	if ok {
		k.TempRelease(mark)
	}
}

// goodHelperRelease discharges the mark through the helper on every path.
func goodHelperRelease(k *bdd.Kernel, f, g bdd.Ref) bdd.Ref {
	mark := k.TempMark()
	h := k.TempKeep(k.And(f, g))
	if h == bdd.Invalid {
		finish(k, mark)
		return bdd.Invalid
	}
	r := k.Or(h, f)
	finish(k, mark)
	return r
}

// goodDeferHelper defers the helper instead of TempRelease itself.
func goodDeferHelper(k *bdd.Kernel, f bdd.Ref) bdd.Ref {
	mark := k.TempMark()
	defer finish(k, mark)
	return k.TempKeep(k.Not(f))
}

// goodHelperChain discharges through the two-level helper.
func goodHelperChain(k *bdd.Kernel, f bdd.Ref) {
	mark := k.TempMark()
	k.TempKeep(k.Not(f))
	finishChain(k, mark)
}

// leakHelperMaybe calls the conditional helper, which is not a release.
func leakHelperMaybe(k *bdd.Kernel, f bdd.Ref, ok bool) {
	mark := k.TempMark()
	k.TempKeep(k.Not(f))
	finishMaybe(k, mark, ok)
} // want `function exits without TempRelease\(mark\)`

// leakIgnored leaks deliberately; the comma-separated directive names this
// analyzer among others and silences the finding at the fall-off exit.
func leakIgnored(k *bdd.Kernel, f bdd.Ref) {
	mark := k.TempMark()
	k.TempKeep(k.Not(f))
	_ = mark
	//lint:ignore tempmark,kernelmix the enclosing harness releases every mark between runs
}

// leakGCEarlyReturn: bailing out on a collection that freed nothing skips
// the release.
func leakGCEarlyReturn(k *bdd.Kernel, f bdd.Ref) bdd.Ref {
	mark := k.TempMark()
	h := k.TempKeep(k.Not(f))
	before := k.Size()
	if k.GC(); k.Size() == before {
		return h // want `function exits without TempRelease\(mark\)`
	}
	k.TempRelease(mark)
	return h
}
