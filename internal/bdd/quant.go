package bdd

// quant.go implements existential and universal quantification over variable
// cubes, and the combined apply-quantify operations AppEx and AppAll that
// mirror BuDDy's bdd_appex and bdd_appall. The combined forms are the
// machinery behind the paper's quantifier pull-up rewrite rule (§4.3): they
// quantify on the fly during the apply recursion instead of first
// materializing the (often much larger) BDD of the boolean combination.

// Cube returns the conjunction of the positive literals of vars. Cube BDDs
// identify variable sets for the quantification operations; being ordinary
// BDDs they also serve as cache keys.
func (k *Kernel) Cube(vars ...int) Ref {
	// Build bottom-up in descending level order so each step is a single
	// makeNode.
	seen := make(map[int]bool, len(vars))
	levels := make([]uint32, 0, len(vars))
	for _, v := range vars {
		k.checkVar(v)
		if !seen[v] {
			seen[v] = true
			levels = append(levels, uint32(v))
		}
	}
	for i := 1; i < len(levels); i++ {
		for j := i; j > 0 && levels[j] < levels[j-1]; j-- {
			levels[j], levels[j-1] = levels[j-1], levels[j]
		}
	}
	acc := True
	for i := len(levels) - 1; i >= 0; i-- {
		acc = k.makeNode(levels[i], False, acc)
		if acc == Invalid {
			return Invalid
		}
	}
	return acc
}

// CubeVars lists the variables of a cube previously produced by Cube, in
// ascending order.
func (k *Kernel) CubeVars(cube Ref) []int {
	var vars []int
	for cube != True && cube != False {
		vars = append(vars, int(k.level[cube]))
		cube = k.high[cube]
	}
	return vars
}

// Exists returns ∃vars(f), where vars is a cube.
func (k *Kernel) Exists(f, cube Ref) Ref {
	k.checkOperands(f, cube)
	k.maybeGrowQuantCache()
	return k.quant(opExists, f, cube)
}

// Forall returns ∀vars(f), where vars is a cube.
func (k *Kernel) Forall(f, cube Ref) Ref {
	k.checkOperands(f, cube)
	k.maybeGrowQuantCache()
	return k.quant(opForall, f, cube)
}

// AppEx returns ∃cube (f op g) in a single pass, the analogue of BuDDy's
// bdd_appex. op must be one of OpAnd, OpOr, OpXor.
func (k *Kernel) AppEx(f, g Ref, op ApplyOp, cube Ref) Ref {
	k.checkOperands(f, g, cube)
	k.maybeGrowQuantCache()
	return k.appQuant(opAppEx, uint32(op), f, g, cube)
}

// AppAll returns ∀cube (f op g) in a single pass, the analogue of BuDDy's
// bdd_appall.
func (k *Kernel) AppAll(f, g Ref, op ApplyOp, cube Ref) Ref {
	k.checkOperands(f, g, cube)
	k.maybeGrowQuantCache()
	return k.appQuant(opAppAll, uint32(op), f, g, cube)
}

// maybeGrowQuantCache doubles the quantification cache once the observed
// lookup volume outgrows it. Growing only at operation entry keeps the
// table stable during a recursion (no stale entry pointers).
func (k *Kernel) maybeGrowQuantCache() {
	if k.fixedCache {
		return
	}
	for len(k.quantCache) < maxQuantCacheSize && k.quantLookups > uint64(len(k.quantCache))*8 {
		size := len(k.quantCache) * 2
		k.quantCache = make([]quantEntry, size)
		k.quantMask = uint32(size - 1)
	}
}

const maxQuantCacheSize = 1 << 16

// ApplyOp selects the boolean connective for AppEx and AppAll.
type ApplyOp uint32

// Connectives accepted by AppEx and AppAll.
const (
	OpAnd ApplyOp = ApplyOp(opAnd)
	OpOr  ApplyOp = ApplyOp(opOr)
	OpXor ApplyOp = ApplyOp(opXor)
)

func (k *Kernel) quant(op uint32, f, cube Ref) Ref {
	if k.err != nil || f == Invalid || cube == Invalid {
		return Invalid
	}
	if k.isTerminal(f) || cube == True {
		return f
	}
	k.appliedCount++
	k.quantLookups++
	slot := (uint32(f)*0x9e3779b9 ^ uint32(cube)*0xc2b2ae35 ^ op*0x27d4eb2f) & k.quantMask
	e := &k.quantCache[slot]
	if e.epoch == k.cacheEpoch && e.op == op && e.f == f && e.cube == cube {
		k.quantHits++
		return e.res
	}
	level, lowIn, highIn := k.level[f], k.low[f], k.high[f]
	// Advance the cube below level: variables above f's top variable do not
	// occur in f, so quantifying them is the identity.
	c := cube
	for c != True {
		cl := k.level[c]
		if cl >= level {
			break
		}
		c = k.high[c]
	}
	if c == True {
		*e = quantEntry{op: op, f: f, cube: cube, res: f, epoch: k.cacheEpoch}
		return f
	}
	var res Ref
	if k.level[c] == level {
		// Quantified variable: combine the cofactors.
		below := k.high[c]
		low := k.quant(op, lowIn, below)
		if low == Invalid {
			return Invalid
		}
		high := k.quant(op, highIn, below)
		if high == Invalid {
			return Invalid
		}
		if op == opExists {
			res = k.apply(opOr, low, high)
		} else {
			res = k.apply(opAnd, low, high)
		}
	} else {
		low := k.quant(op, lowIn, c)
		if low == Invalid {
			return Invalid
		}
		high := k.quant(op, highIn, c)
		if high == Invalid {
			return Invalid
		}
		res = k.makeNode(level, low, high)
	}
	if res == Invalid {
		return Invalid
	}
	*e = quantEntry{op: op, f: f, cube: cube, res: res, epoch: k.cacheEpoch}
	return res
}

func (k *Kernel) appQuant(mode, op uint32, f, g, cube Ref) Ref {
	if k.err != nil || f == Invalid || g == Invalid || cube == Invalid {
		return Invalid
	}
	if r, ok := terminalApply(op, f, g); ok {
		if mode == opAppEx {
			return k.quant(opExists, r, cube)
		}
		return k.quant(opForall, r, cube)
	}
	f, g = normalizeApply(op, f, g)
	k.appliedCount++
	k.quantLookups++
	key := mode<<4 | op
	slot := (uint32(f)*0x9e3779b9 ^ uint32(g)*0x85ebca6b ^ uint32(cube)*0xc2b2ae35 ^ key*0x27d4eb2f) & k.quantMask
	e := &k.quantCache[slot]
	if e.epoch == k.cacheEpoch && e.op == key && e.f == f && e.g == g && e.cube == cube {
		k.quantHits++
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
	c := cube
	for c != True && k.level[c] < level {
		c = k.high[c]
	}
	var res Ref
	if c != True && k.level[c] == level {
		below := k.high[c]
		low := k.appQuant(mode, op, f0, g0, below)
		if low == Invalid {
			return Invalid
		}
		high := k.appQuant(mode, op, f1, g1, below)
		if high == Invalid {
			return Invalid
		}
		if mode == opAppEx {
			res = k.apply(opOr, low, high)
		} else {
			res = k.apply(opAnd, low, high)
		}
	} else {
		low := k.appQuant(mode, op, f0, g0, c)
		if low == Invalid {
			return Invalid
		}
		high := k.appQuant(mode, op, f1, g1, c)
		if high == Invalid {
			return Invalid
		}
		res = k.makeNode(level, low, high)
	}
	if res == Invalid {
		return Invalid
	}
	*e = quantEntry{op: key, f: f, g: g, cube: cube, res: res, epoch: k.cacheEpoch}
	return res
}
