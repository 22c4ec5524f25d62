// Package kernelowners exercises the kernelowner analyzer: structural
// mutations of bdd.Kernel/core.Checker must be unreachable from
// //cv:owner any entry points, directly or through helpers, while
// locally materialized (fresh) checkers are exempt.
package kernelowners

import (
	"repro/internal/bdd"
	"repro/internal/core"
)

type server struct {
	chk *core.Checker
	k   *bdd.Kernel
}

var globalKernel *bdd.Kernel

//cv:owner worker
func (s *server) run(ups []core.Update) {
	// The kernel owner mutates freely.
	s.chk.Apply(ups)
	s.k.Reorder()
}

//cv:owner any
func (s *server) handleDirect(ups []core.Update) { // want `annotated //cv:owner any but can mutate kernel/checker state via \(\*Checker\)\.Apply`
	s.chk.Apply(ups)
}

//cv:owner any
func (s *server) handleViaHelper(ups []core.Update) { // want `can mutate kernel/checker state via \(\*server\)\.applyAll → \(\*Checker\)\.Apply`
	s.applyAll(ups)
}

// applyAll is unannotated: it earns a mutation summary but no finding of its
// own — only annotated entry points report.
func (s *server) applyAll(ups []core.Update) {
	s.chk.Apply(ups)
}

//cv:owner any
func (s *server) handleDeep() { // want `can mutate kernel/checker state via \(\*server\)\.level1`
	s.level1()
}

func (s *server) level1() { s.level2() }

func (s *server) level2() {
	s.k.SetOrder([]int{0})
}

//cv:owner any
func (s *server) handleAlias() { // want `can mutate kernel/checker state via \(\*Kernel\)\.ClearCaches`
	k := s.k // alias of externally held kernel keeps its root
	k.ClearCaches()
}

//cv:owner any
func (s *server) handleCopyToDst(src *bdd.Kernel, r bdd.Ref) { // want `can mutate kernel/checker state via \(\*Kernel\)\.CopyTo destination`
	// CopyTo mutates its destination argument, not its receiver.
	src.CopyTo(s.k, r)
}

//cv:owner any
func handleGlobal() { // want `can mutate kernel/checker state via \(\*Kernel\)\.ClearCaches`
	globalKernel.ClearCaches()
}

//cv:owner any
func (s *server) handleSwap(chk *core.Checker) { // want `can mutate kernel/checker state via assignment to field chk`
	s.chk = chk
}

//cv:owner any
func (s *server) handleRead() {
	// Evaluation and stats are read-only: no finding.
	_ = s.chk.Stats()
	_ = s.k.Size()
}

//cv:owner any
func handleHistorical(catalog interface{}, opts core.Options, ups []core.Update) {
	// A locally materialized checker is private: mutating it from a
	// handler goroutine is sound, exactly like store.CheckerAt replaying
	// the WAL into a fresh restore.
	chk := materialize(opts)
	chk.Apply(ups)
}

func materialize(opts core.Options) *core.Checker {
	return core.New(nil, opts)
}

//cv:owner any
func (s *server) handleFreshFromArgCall(opts core.Options) {
	// Argument-taking calls construct fresh values; the mutation does not
	// root at s.
	chk := materializeFor(s, opts)
	chk.Reorder()
}

func materializeFor(s *server, opts core.Options) *core.Checker {
	return core.New(nil, opts)
}

//cv:owner writer
func (s *server) handleTypo() { // want `malformed //cv:owner directive "writer"`
}

// closer is dynamic dispatch: a goroutine that reaches a worker only through
// it is not followed.
type closer interface{ Close() }

//cv:owner worker
func (s *server) publish(ups []core.Update, opts core.Options, w closer) {
	// A goroutine runs beside the worker that spawned it, so its literal is
	// an `any` root: captured state must stay read-only.
	go func() { // want `goroutine started here runs beside publish but can mutate kernel/checker state via \(\*Kernel\)\.ClearCaches`
		s.k.ClearCaches()
	}()
	go func() { // want `via \(\*server\)\.applyAll → \(\*Checker\)\.Apply`
		s.applyAll(ups)
	}()
	go func() {
		// A checker the goroutine builds itself is private to it.
		chk := materialize(opts)
		chk.Apply(ups)
		_ = s.chk.Stats()
	}()
	go func() { w.Close() }()
}
