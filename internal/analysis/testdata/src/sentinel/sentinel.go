// Package sentinel exercises the sentinelcmp analyzer: direct comparisons
// against module sentinel errors must be flagged, errors.Is and
// standard-library sentinels must not.
package sentinel

import (
	"errors"
	"io"

	"repro/internal/bdd"
	"repro/internal/logic"
)

// ErrLocal is a package-local sentinel; local comparisons are just as wrong
// as cross-package ones, because this package wraps it too.
var ErrLocal = errors.New("sentinel: local failure")

func bad(k *bdd.Kernel, err error) bool {
	if k.Err() == bdd.ErrBudget { // want `direct == comparison against sentinel bdd\.ErrBudget`
		return true
	}
	if err != bdd.ErrCorrupt { // want `direct != comparison against sentinel bdd\.ErrCorrupt`
		return false
	}
	if err == logic.ErrNoIndex { // want `direct == comparison against sentinel logic\.ErrNoIndex`
		return true
	}
	return err == ErrLocal // want `direct == comparison against sentinel sentinel\.ErrLocal`
}

func badSwitch(err error) string {
	switch err {
	case bdd.ErrBudget: // want `switch case compares against sentinel bdd\.ErrBudget`
		return "budget"
	case nil:
		return "ok"
	}
	return "other"
}

func good(k *bdd.Kernel, err error) bool {
	if errors.Is(k.Err(), bdd.ErrBudget) {
		return true
	}
	if errors.Is(err, ErrLocal) {
		return true
	}
	// Standard-library sentinels are documented never to arrive wrapped
	// from their own packages; direct comparison is idiomatic.
	if err == io.EOF {
		return false
	}
	return err == nil
}
