// Command cvbench regenerates the paper's evaluation: every figure and
// table of §5, printed as text tables with the paper's reported numbers for
// comparison. It measures kernels in-process; the service is measured by
// bench/ against a cvserved.
//
// Usage:
//
//	cvbench [-exp all|NAME[,NAME...]] [-full] [-seed N] [-json rows.jsonl]
//
// cvbench -h lists the experiment names; an unknown one is an error (exit 2).
// By default reduced workload sizes keep the whole run in laptop-minutes;
// -full selects the paper-scale parameters (400k-tuple relations, all 120
// orderings, 10^7-node threshold fills). -json additionally writes one JSON
// object per timed measurement (JSON Lines) for downstream tooling; "-"
// selects stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

type experiment struct {
	name string
	run  func(experiments.Config) error
}

// all is the one list of experiments, in the order "all" runs them; the -exp
// help and the unknown-name error are built from it.
var all = []experiment{
	{"fig2a", experiments.Fig2a},
	{"fig2bc", experiments.Fig2bc},
	{"fig3", experiments.Fig3},
	{"fig4", experiments.Fig4},
	{"fig5a", experiments.Fig5a},
	{"fig5b", experiments.Fig5b},
	{"fig6a", experiments.Fig6a},
	{"fig6b", experiments.Fig6b},
	{"fig6c", experiments.Fig6c},
	{"table1", experiments.Table1},
	{"threshold", experiments.Threshold},
}

// expNames joins "all" and every experiment name with sep.
func expNames(sep string) string {
	names := []string{"all"}
	for _, e := range all {
		names = append(names, e.name)
	}
	return strings.Join(names, sep)
}

// selectExperiments resolves a -exp value to the experiments it names, in
// table order. Any name that is neither "all" nor in the table fails the
// whole selection, so a typo or a retired experiment cannot pass silently.
func selectExperiments(spec string) ([]experiment, error) {
	valid := map[string]bool{"all": true}
	for _, e := range all {
		valid[e.name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if !valid[name] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, expNames(", "))
		}
		want[name] = true
	}
	var selected []experiment
	for _, e := range all {
		if want["all"] || want[e.name] {
			selected = append(selected, e)
		}
	}
	return selected, nil
}

func main() {
	exp := flag.String("exp", "all", "experiments to run, comma separated: "+expNames("|"))
	full := flag.Bool("full", false, "paper-scale workloads")
	seed := flag.Int64("seed", 1, "base random seed")
	jsonPath := flag.String("json", "", "write benchmark rows as JSON Lines to this file ('-' = stdout)")
	flag.Parse()

	selected, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvbench:", err)
		os.Exit(2)
	}
	cfg := experiments.Config{Out: os.Stdout, Full: *full, Seed: *seed}
	var jsonEnc *json.Encoder
	if *jsonPath != "" {
		var w io.Writer = os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cvbench:", err)
				os.Exit(2)
			}
			defer f.Close()
			w = f
		}
		jsonEnc = json.NewEncoder(w)
		cfg.Record = func(row experiments.BenchRow) {
			if err := jsonEnc.Encode(row); err != nil {
				fmt.Fprintln(os.Stderr, "cvbench: writing json:", err)
				os.Exit(2)
			}
		}
	}
	for _, e := range selected {
		start := time.Now()
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "cvbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if cfg.Record != nil {
			cfg.Record(experiments.BenchRow{
				Experiment: e.name, Name: "elapsed", NsPerOp: elapsed.Nanoseconds(),
			})
		}
		fmt.Printf("[%s completed in %v]\n\n", e.name, elapsed.Round(time.Millisecond))
	}
}
