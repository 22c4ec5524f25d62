package logic

// MaxPredCache and PredCacheLen let the external tests see the bound on the
// bound-predicate cache and its current size.
const MaxPredCache = maxPredCache

func (ev *Evaluator) PredCacheLen() int { return len(ev.predCache) }
