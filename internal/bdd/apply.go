package bdd

// apply.go implements the memoized Shannon-expansion apply operator for the
// binary boolean connectives, plus negation and if-then-else.

// And returns f ∧ g.
func (k *Kernel) And(f, g Ref) Ref {
	k.checkOperands(f, g)
	return k.apply(opAnd, f, g)
}

// Or returns f ∨ g.
func (k *Kernel) Or(f, g Ref) Ref {
	k.checkOperands(f, g)
	return k.apply(opOr, f, g)
}

// Xor returns f ⊕ g.
func (k *Kernel) Xor(f, g Ref) Ref {
	k.checkOperands(f, g)
	return k.apply(opXor, f, g)
}

// Diff returns f ∧ ¬g (set difference of the satisfying assignments).
func (k *Kernel) Diff(f, g Ref) Ref {
	k.checkOperands(f, g)
	return k.apply(opDiff, f, g)
}

// Imp returns f ⇒ g, that is ¬f ∨ g.
func (k *Kernel) Imp(f, g Ref) Ref {
	k.checkOperands(f, g)
	return k.apply(opImp, f, g)
}

// Biimp returns f ⇔ g.
func (k *Kernel) Biimp(f, g Ref) Ref {
	k.checkOperands(f, g)
	return k.apply(opBiimp, f, g)
}

// Not returns ¬f.
func (k *Kernel) Not(f Ref) Ref {
	k.checkOperands(f)
	return k.negate(f)
}

// ITE returns the if-then-else combination (f ∧ g) ∨ (¬f ∧ h).
func (k *Kernel) ITE(f, g, h Ref) Ref {
	k.checkOperands(f, g, h)
	// Evaluated via three applies and a negation rather than a ternary
	// recursion: it builds only the nodes a Replace moved out of order
	// (Kernel.node), which the paper's workloads rarely reach.
	a := k.apply(opAnd, f, g)
	nf := k.negate(f)
	b := k.apply(opAnd, nf, h)
	return k.apply(opOr, a, b)
}

// terminalApply resolves op when at least one operand lets the result be
// decided without expansion. The boolean return reports whether it did.
func terminalApply(op uint32, f, g Ref) (Ref, bool) {
	switch op {
	case opAnd:
		switch {
		case f == False || g == False:
			return False, true
		case f == True:
			return g, true
		case g == True:
			return f, true
		case f == g:
			return f, true
		}
	case opOr:
		switch {
		case f == True || g == True:
			return True, true
		case f == False:
			return g, true
		case g == False:
			return f, true
		case f == g:
			return f, true
		}
	case opXor:
		switch {
		case f == g:
			return False, true
		case f == False:
			return g, true
		case g == False:
			return f, true
		}
	case opDiff:
		switch {
		case f == False || g == True:
			return False, true
		case g == False:
			return f, true
		case f == g:
			return False, true
		}
	case opImp:
		switch {
		case f == False || g == True:
			return True, true
		case f == True:
			return g, true
		case f == g:
			return True, true
		}
	case opBiimp:
		switch {
		case f == g:
			return True, true
		case f == True:
			return g, true
		case g == True:
			return f, true
		}
	}
	if f == True && g == True {
		// Unreachable for the ops above, but keeps the contract explicit.
		return True, true
	}
	return Invalid, false
}

// normalizeApply exploits commutativity to improve cache hit rates.
func normalizeApply(op uint32, f, g Ref) (Ref, Ref) {
	switch op {
	case opAnd, opOr, opXor, opBiimp:
		if f > g {
			return g, f
		}
	}
	return f, g
}

func (k *Kernel) apply(op uint32, f, g Ref) Ref {
	if k.err != nil || f == Invalid || g == Invalid {
		return Invalid
	}
	if r, ok := terminalApply(op, f, g); ok {
		return r
	}
	f, g = normalizeApply(op, f, g)
	k.appliedCount++
	k.applyLookups++
	slot := (uint32(f)*0x9e3779b9 ^ uint32(g)*0x85ebca6b ^ op*0x27d4eb2f) & k.applyMask
	e := &k.applyCache[slot]
	if e.epoch == k.cacheEpoch && e.op == op && e.f == f && e.g == g {
		k.applyHits++
		return e.res
	}
	var level uint32
	var f0, f1, g0, g1 Ref
	fl, gl := k.level[f], k.level[g]
	switch {
	case fl == gl:
		level = fl
		f0, f1 = k.low[f], k.high[f]
		g0, g1 = k.low[g], k.high[g]
	case fl < gl:
		level = fl
		f0, f1 = k.low[f], k.high[f]
		g0, g1 = g, g
	default:
		level = gl
		f0, f1 = f, f
		g0, g1 = k.low[g], k.high[g]
	}
	low := k.apply(op, f0, g0)
	if low == Invalid {
		return Invalid
	}
	high := k.apply(op, f1, g1)
	if high == Invalid {
		return Invalid
	}
	res := k.makeNode(level, low, high)
	if res == Invalid {
		return Invalid
	}
	*e = applyEntry{op: op, f: f, g: g, res: res, epoch: k.cacheEpoch}
	return res
}

func (k *Kernel) negate(f Ref) Ref {
	if k.err != nil || f == Invalid {
		return Invalid
	}
	switch f {
	case False:
		return True
	case True:
		return False
	}
	k.appliedCount++
	k.applyLookups++
	notKey := opNot // runtime value: the constant product overflows uint32
	slot := (uint32(f)*0x9e3779b9 ^ notKey*0x27d4eb2f) & k.applyMask
	e := &k.applyCache[slot]
	if e.epoch == k.cacheEpoch && e.op == opNot && e.f == f {
		k.applyHits++
		return e.res
	}
	level, lowIn, highIn := k.level[f], k.low[f], k.high[f]
	low := k.negate(lowIn)
	high := k.negate(highIn)
	res := k.makeNode(level, low, high)
	if res == Invalid {
		return Invalid
	}
	*e = applyEntry{op: opNot, f: f, g: False, res: res, epoch: k.cacheEpoch}
	return res
}
