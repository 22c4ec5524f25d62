package bdd

import (
	"fmt"
	"sort"
)

// replace.go implements variable replacement — the BDD analogue of
// attribute renaming, used by the paper's equi-join rewrite rule (§4.2) —
// plus cofactor restriction.

// ReplaceMap is an interned variable substitution usable with Replace. Maps
// are created once per (source block, target block) pair and reused, which
// also gives Replace results a stable cache identity.
type ReplaceMap struct {
	id int32
}

// NewReplaceMap interns the substitution pairs[i][0] → pairs[i][1]. The
// substitution must be injective: no duplicate sources or targets. Any such
// pairing is accepted, as BuDDy's bdd_replace accepts it: where a renamed
// node would sit below one of its children, Replace rebuilds it as an ITE
// (see Kernel.node).
//
// The map renames f when a target variable occurs in f only if it is itself
// renamed. Otherwise Replace still returns the simultaneous substitution,
// but that identifies the target with the source renamed onto it (the
// diagonal f(x, x)) instead of moving the source onto a free variable.
func (k *Kernel) NewReplaceMap(pairs [][2]int) (ReplaceMap, error) {
	usedDst := make(map[int]bool, len(pairs))
	usedSrc := make(map[int]bool, len(pairs))
	rm := replaceMap{target: make([]uint32, k.numVars)}
	for i := range rm.target {
		rm.target[i] = uint32(i)
	}
	for _, p := range pairs {
		src, dst := p[0], p[1]
		k.checkVar(src)
		k.checkVar(dst)
		if usedDst[dst] {
			return ReplaceMap{}, fmt.Errorf("bdd: duplicate replacement target %d", dst)
		}
		if usedSrc[src] {
			return ReplaceMap{}, fmt.Errorf("bdd: duplicate replacement source %d", src)
		}
		usedDst[dst] = true
		usedSrc[src] = true
		rm.target[src] = uint32(dst)
		rm.lastLevel = max(rm.lastLevel, uint32(src))
	}
	k.replaceMaps = append(k.replaceMaps, rm)
	return ReplaceMap{id: int32(len(k.replaceMaps) - 1)}, nil
}

// Replace applies the interned substitution m to f: every variable u with a
// mapping u→v is renamed to v. The operation is a single memoized pass over
// f, which is why the paper's rename-based join rewrite beats conjunction
// with equality BDDs; a node the map moves out of order costs an ITE.
func (k *Kernel) Replace(f Ref, m ReplaceMap) Ref {
	k.checkOperands(f)
	if int(m.id) >= len(k.replaceMaps) {
		panic("bdd: replace map from a different kernel")
	}
	k.maybeGrowReplaceCache()
	return k.replaceRec(f, m.id)
}

// maybeGrowReplaceCache doubles the replacement cache once the observed
// lookup volume outgrows it; see maybeGrowQuantCache.
func (k *Kernel) maybeGrowReplaceCache() {
	if k.fixedCache {
		return
	}
	for len(k.replaceCache) < maxReplaceCacheSize && k.replaceLookups > uint64(len(k.replaceCache))*8 {
		size := len(k.replaceCache) * 2
		k.replaceCache = make([]replaceEntry, size)
		k.replaceMask = uint32(size - 1)
	}
}

const maxReplaceCacheSize = 1 << 15

func (k *Kernel) replaceRec(f Ref, id int32) Ref {
	if k.err != nil || f == Invalid {
		return Invalid
	}
	if k.isTerminal(f) {
		return f
	}
	rm := &k.replaceMaps[id]
	if k.level[f] > rm.lastLevel {
		return f
	}
	k.appliedCount++
	k.replaceLookups++
	slot := (uint32(f)*0x9e3779b9 ^ uint32(id)*0x85ebca6b ^ 0x7feb352d) & k.replaceMask
	e := &k.replaceCache[slot]
	if e.epoch == k.cacheEpoch && e.f == f && e.mapID == id {
		k.replaceHits++
		return e.res
	}
	level, lowIn, highIn := k.level[f], k.low[f], k.high[f]
	newLevel := level
	if int(level) < len(rm.target) {
		newLevel = rm.target[level]
	}
	low := k.replaceRec(lowIn, id)
	high := k.replaceRec(highIn, id)
	res := k.node(newLevel, low, high)
	if res == Invalid {
		return Invalid
	}
	*e = replaceEntry{f: f, mapID: id, res: res, epoch: k.cacheEpoch}
	return res
}

// Restrict returns the cofactor of f with the variables of assignment fixed
// to the given values. The assignment is a list of (variable, value) pairs.
// Its steps are not part of Stats().Ops.
func (k *Kernel) Restrict(f Ref, assignment []Literal) Ref {
	k.checkOperands(f)
	if len(assignment) == 0 {
		return f
	}
	val := make([]int8, k.numVars) // indexed by variable: 0 unset, 1 false, 2 true
	last := uint32(0)              // lowest restricted level; nothing below it changes
	for _, lit := range assignment {
		k.checkVar(lit.Var)
		if lit.Value {
			val[lit.Var] = 2
		} else {
			val[lit.Var] = 1
		}
		last = max(last, uint32(lit.Var))
	}
	clear(k.restrictSeen)
	return k.restrictRec(f, val, last)
}

func (k *Kernel) restrictRec(g Ref, val []int8, last uint32) Ref {
	if k.err != nil || g == Invalid {
		return Invalid
	}
	if k.isTerminal(g) || k.level[g] > last {
		return g
	}
	word, bit := int(g>>6), uint64(1)<<(g&63)
	if word < len(k.restrictSeen) && k.restrictSeen[word]&bit != 0 {
		return k.restrictMemo[g]
	}
	level, lowIn, highIn := k.level[g], k.low[g], k.high[g]
	var res Ref
	switch val[level] {
	case 2:
		res = k.restrictRec(highIn, val, last)
	case 1:
		res = k.restrictRec(lowIn, val, last)
	default:
		low := k.restrictRec(lowIn, val, last)
		if low == Invalid {
			return Invalid
		}
		high := k.restrictRec(highIn, val, last)
		if high == Invalid {
			return Invalid
		}
		res = k.makeNode(level, low, high)
	}
	if res == Invalid {
		return Invalid
	}
	if word >= len(k.restrictSeen) {
		words := word + 1 + word/4 // headroom, so a rising Ref does not regrow per node
		k.restrictSeen = append(k.restrictSeen, make([]uint64, words-len(k.restrictSeen))...)
		k.restrictMemo = append(k.restrictMemo, make([]Ref, words*64-len(k.restrictMemo))...)
	}
	k.restrictSeen[word] |= bit
	k.restrictMemo[g] = res
	return res
}

// Literal is a variable with a truth value, used by Restrict, Minterm and
// the satisfying-assignment enumerators.
type Literal struct {
	Var   int
	Value bool
}

// Minterm builds the conjunction of the literals in a single bottom-up pass,
// one makeNode per literal. It is the fast path for encoding a relational
// tuple (the fdd layer batches an entire tuple's bits through here).
func (k *Kernel) Minterm(lits []Literal) Ref {
	sorted := make([]Literal, len(lits))
	copy(sorted, lits)
	for _, lit := range sorted {
		k.checkVar(lit.Var)
	}
	// Sort by variable so the bottom-up build sees descending levels;
	// duplicate variables end up adjacent.
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Var < sorted[j].Var })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Var == sorted[i-1].Var {
			if sorted[i].Value != sorted[i-1].Value {
				return False
			}
		}
	}
	acc := True
	for i := len(sorted) - 1; i >= 0; i-- {
		if i+1 < len(sorted) && sorted[i].Var == sorted[i+1].Var {
			continue
		}
		if sorted[i].Value {
			acc = k.makeNode(uint32(sorted[i].Var), False, acc)
		} else {
			acc = k.makeNode(uint32(sorted[i].Var), acc, False)
		}
		if acc == Invalid {
			return Invalid
		}
	}
	return acc
}
