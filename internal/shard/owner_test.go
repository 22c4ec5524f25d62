package shard_test

import (
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/shard"
)

// TestCoordinatorHoldsNoKernelState pins ownership by scope: the residual
// checker is the writer goroutine's parameter, and Coordinator, which every
// request holds, has no field through which to reach it or its kernel.
func TestCoordinatorHoldsNoKernelState(t *testing.T) {
	forbidden := []reflect.Type{
		reflect.TypeOf((*core.Checker)(nil)),
		reflect.TypeOf((*index.Store)(nil)),
		reflect.TypeOf((*bdd.Kernel)(nil)),
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(shard.Coordinator{})) {
		for _, typ := range forbidden {
			if f.Type == typ {
				t.Errorf("Coordinator.%s is a %v: requests could reach the residual checker", f.Name, typ)
			}
		}
	}
}
