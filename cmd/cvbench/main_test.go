package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	every := strings.TrimPrefix(expNames(","), "all,")
	for _, tc := range []struct{ spec, want, unknown string }{
		{spec: "fig4", want: "fig4"},
		{spec: " threshold , fig4", want: "fig4,threshold"}, // trimmed, table order
		{spec: "all", want: every},
		{spec: "all,fig4", want: every},
		{spec: "parallel", unknown: `"parallel"`},
		{spec: "fig4,paralel", unknown: `"paralel"`},
		{spec: "all,shard", unknown: `"shard"`},
		{spec: "reorder", unknown: `"reorder"`}, // retired with dynamic reordering
		{spec: "", unknown: `""`},
	} {
		got, err := selectExperiments(tc.spec)
		if tc.unknown != "" {
			if err == nil || !strings.Contains(err.Error(), tc.unknown) || !strings.Contains(err.Error(), expNames(", ")) {
				t.Errorf("selectExperiments(%q): error %v, want one naming %s and the valid names", tc.spec, err, tc.unknown)
			}
			continue
		}
		var names []string
		for _, e := range got {
			names = append(names, e.name)
		}
		if err != nil || strings.Join(names, ",") != tc.want {
			t.Errorf("selectExperiments(%q) = %v, %v; want %s", tc.spec, names, err, tc.want)
		}
	}
}
