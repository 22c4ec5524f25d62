package main

// gc_test.go pins the serving collector setting: servingGCPercent, unless
// the environment sets GOGC.

import (
	"runtime/debug"
	"testing"
)

func TestServingGCPercentYieldsToGOGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	for _, c := range []struct {
		env  string
		want int
	}{{"", servingGCPercent}, {"100", 100}, {"off", 100}} {
		t.Setenv("GOGC", c.env)
		debug.SetGCPercent(100)
		tuneServingGC()
		if got := debug.SetGCPercent(100); got != c.want {
			t.Errorf("GOGC=%q: collector at %d, want %d", c.env, got, c.want)
		}
	}
}
