package service

import (
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/index"
)

// TestServerHoldsNoKernelState pins ownership by scope: the primary
// checker, its index store and kernel live in the worker, and Server, which
// every handler holds, has no field through which to reach them.
func TestServerHoldsNoKernelState(t *testing.T) {
	forbidden := []reflect.Type{
		reflect.TypeOf((*core.Checker)(nil)),
		reflect.TypeOf((*index.Store)(nil)),
		reflect.TypeOf((*bdd.Kernel)(nil)),
		reflect.TypeOf((*worker)(nil)),
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Server{})) {
		for _, typ := range forbidden {
			if f.Type == typ {
				t.Errorf("Server.%s is a %v: handlers could reach the worker's state", f.Name, typ)
			}
		}
	}
}
