// Command bench is the repository's loopback benchmark for cvserved. It
// builds the daemon, generates its inputs from internal/datagen with the
// given seed, boots a real daemon per workload, drives it in a closed loop,
// verifies every reply against a reference oracle and prints every metric by
// name with its unit. See README.md in this directory.
//
// Usage:
//
//	go run ./bench -seed N [-workload W] [-seconds S] [-trace 0|1] [-aa N]
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the gated end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. Without it,
// every workload runs in turn. -aa N repeats the whole suite N times on the
// one build and prints the run-to-run range of every end-to-end metric and
// request clock, the gated ones against their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	workloadFlag := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), "|")+" (default: all, in turn)")
	seed := flag.Int64("seed", 1, "seed of the generated relation and op list")
	seconds := flag.Int("seconds", nominalSeconds, "nominal length of the measured phase; scales the fixed op count (never below the base count)")
	trace := flag.Int("trace", 0, "1 = the per-layer traced pass instead of the end-to-end metrics")
	aa := flag.Int("aa", 0, "run the suite N times on one build and report run-to-run ranges against the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace wants 0 or 1")
	}
	names := workloadNames()
	if *workloadFlag != "" {
		if _, ok := shapes[*workloadFlag]; !ok {
			fatalf("unknown workload %q (want one of %s)", *workloadFlag, strings.Join(names, ", "))
		}
		names = []string{*workloadFlag}
	}

	e, err := newEnv()
	if err != nil {
		fatalf("%v", err)
	}
	e.closeOnSignal()
	code := func() int {
		defer e.close()
		if *aa > 0 {
			return runAA(e, names, *seed, *seconds, *aa)
		}
		ok := true
		for _, name := range names {
			if !runOne(e, name, *seed, *seconds, *trace == 1) {
				ok = false
			}
		}
		if !ok {
			return 1
		}
		return 0
	}()
	os.Exit(code)
}

func warnf(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }

func fatalf(format string, args ...any) {
	warnf(format, args...)
	os.Exit(2)
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one workload and prints its report and result line. A run
// that cannot measure (boot failure, harness error) prints no result and
// reports false.
func runOne(e *env, name string, seed int64, seconds int, traced bool) bool {
	w, err := buildWorkload(name, seed, seconds)
	if err != nil {
		warnf("%v", err)
		return false
	}
	defer e.watchdog(name)()
	fmt.Printf("== %s  seed %d  %s  (daemon GOMAXPROCS=%s -replicas %s -order %s; host %d CPUs, %s)\n",
		name, seed, w.describe(), daemonGOMAXPROCS, daemonReplicas, daemonOrder, runtime.NumCPU(), runtime.Version())
	var out *outcome
	if traced {
		out, err = runTraced(e, w)
	} else {
		out, err = runE2E(e, w)
	}
	if err != nil {
		warnf("%s: %v", name, err)
		return false
	}
	for _, n := range out.notes {
		fmt.Println("   " + n)
	}
	printMetrics(out.metrics, "")
	printMetrics(out.ungated, "  (unresolved on this host, not gated)")
	if out.firstErr != nil {
		fmt.Printf("   first failure: %v\n", out.firstErr)
	}
	line, err := json.Marshal(result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
	if err != nil {
		warnf("%v", err)
		return false
	}
	fmt.Println(string(line))
	return true
}

func printMetrics(ms map[string]metric, note string) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   %-34s %14.4f %s%s\n", k, ms[k].Value, ms[k].Unit, note)
	}
}

// describe summarises the workload's size.
func (w *workload) describe() string {
	return fmt.Sprintf("%d tuples, %d registered, 1 warm-up + %d settle + %d measured slices x %d ops", len(w.Rows), len(w.Registered), len(w.Settle), len(w.Slices), len(w.Warmup))
}
