package bdd

import "fmt"

// CheckMemo recomputes every valid operation-cache entry in a fresh kernel
// (same variables, same replacement maps, empty caches) and
// reports the first entry that names a freed node or whose memoised result is
// not the function the operation yields there. It also returns how many
// entries it checked.
func (k *Kernel) CheckMemo() (int, error) {
	fresh := New(Config{Vars: k.numVars})
	fresh.replaceMaps = k.replaceMaps // only read
	cp := func(refs ...Ref) ([]Ref, error) {
		for _, r := range refs {
			if r < 0 || int(r) >= len(k.level) || k.level[r] == freedLevel {
				return nil, fmt.Errorf("names freed or foreign node %d", r)
			}
		}
		img, err := k.Export(refs...)
		if err != nil {
			return nil, err
		}
		return fresh.Import(img)
	}
	checked := 0
	for i := range k.applyCache {
		e := k.applyCache[i]
		if e.epoch != k.cacheEpoch {
			continue
		}
		c, err := cp(e.f, e.g, e.res)
		if err != nil {
			return checked, fmt.Errorf("apply entry %d %s", i, err)
		}
		got := fresh.negate(c[0])
		if e.op != opNot {
			got = fresh.apply(e.op, c[0], c[1])
		}
		if got != c[2] {
			return checked, fmt.Errorf("apply entry %d (op %d) memoises a different function", i, e.op)
		}
		checked++
	}
	for i := range k.quantCache {
		e := k.quantCache[i]
		if e.epoch != k.cacheEpoch {
			continue
		}
		c, err := cp(e.f, e.g, e.cube, e.res)
		if err != nil {
			return checked, fmt.Errorf("quant entry %d %s", i, err)
		}
		var got Ref
		if e.op == opExists || e.op == opForall {
			got = fresh.quant(e.op, c[0], c[2])
		} else {
			got = fresh.appQuant(e.op>>4, e.op&15, c[0], c[1], c[2])
		}
		if got != c[3] {
			return checked, fmt.Errorf("quant entry %d (op %d) memoises a different function", i, e.op)
		}
		checked++
	}
	for i := range k.replaceCache {
		e := k.replaceCache[i]
		if e.epoch != k.cacheEpoch {
			continue
		}
		c, err := cp(e.f, e.res)
		if err != nil {
			return checked, fmt.Errorf("replace entry %d %s", i, err)
		}
		if got := fresh.replaceRec(c[0], e.mapID); got != c[1] {
			return checked, fmt.Errorf("replace entry %d (map %d) memoises a different function", i, e.mapID)
		}
		checked++
	}
	return checked, fresh.Err()
}
