package main

// args_test.go pins the command line: one row per flag, showing where its
// value lands, plus the combinations and values boot must never see. A flag
// without a row fails the test by name, so every flag has a caller.

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

type parsed struct {
	cfg bootConfig
	sc  serveConfig
}

type argsRow struct {
	flag   string   // the flag the row covers; empty for a combination
	args   []string // appended to base
	noBase bool     // args stand alone
	// want checks a parse that must succeed; err is a substring of the
	// error a parse that must fail returns.
	want func(p parsed) bool
	err  string
}

func TestParseArgs(t *testing.T) {
	base := []string{"-table", "CUST=cust.csv", "-constraints", "rules.txt"}
	rows := []argsRow{
		{flag: "table", args: []string{"-table", "CONS=cons.csv"}, want: func(p parsed) bool {
			return reflect.DeepEqual(p.cfg.tables, []tableFlag{{"CUST", "cust.csv"}, {"CONS", "cons.csv"}})
		}},
		{flag: "table", args: []string{"-table", "CONS"}, err: "want NAME=path.csv"},
		{flag: "constraints", want: func(p parsed) bool { return p.cfg.constraintsPath == "rules.txt" }},
		{flag: "addr", args: []string{"-addr", "127.0.0.1:9"}, want: func(p parsed) bool { return p.sc.addr == "127.0.0.1:9" }},
		{flag: "share", args: []string{"-share", "city, state"}, want: func(p parsed) bool {
			return reflect.DeepEqual(p.cfg.shared, map[string]string{"city": "city", "state": "state"})
		}},
		{flag: "order", args: []string{"-order", "maxinf"}, want: func(p parsed) bool { return p.cfg.method == core.OrderMaxInfGain }},
		{flag: "order", args: []string{"-order", "alphabetical"}, err: "unknown ordering"},
		{flag: "budget", args: []string{"-budget", "-1"}, want: func(p parsed) bool { return p.cfg.budget == -1 }},
		{flag: "timeout", args: []string{"-timeout", "5s"}, want: func(p parsed) bool { return p.cfg.svc.DefaultTimeout == 5*time.Second }},
		{flag: "replicas", args: []string{"-replicas", "-1"}, want: func(p parsed) bool { return p.cfg.svc.Replicas == -1 }},
		{flag: "max-body", args: []string{"-max-body", "1024"}, want: func(p parsed) bool { return p.cfg.svc.MaxBodyBytes == 1024 }},
		{flag: "slow-request", args: []string{"-slow-request", "250ms"}, want: func(p parsed) bool {
			return p.cfg.svc.SlowRequest == 250*time.Millisecond
		}},
		{flag: "pprof", args: []string{"-pprof"}, want: func(p parsed) bool { return p.sc.pprof }},
		{flag: "data-dir", args: []string{"-data-dir", "d"}, want: func(p parsed) bool { return p.cfg.dataDir == "d" }},
		{flag: "data-dir", noBase: true, args: []string{"-data-dir", "d"}, want: func(p parsed) bool {
			return p.cfg.dataDir == "d" && len(p.cfg.tables) == 0 // a warm restart needs no CSV flags
		}},
		{flag: "fsync", args: []string{"-fsync", "interval"}, want: func(p parsed) bool {
			return p.cfg.storeOpts.Fsync == store.FsyncIntervalPolicy
		}},
		{flag: "fsync", args: []string{"-fsync", "sometimes"}, err: "unknown fsync policy"},
		{flag: "snapshot-every", args: []string{"-snapshot-every", "16"}, want: func(p parsed) bool {
			return p.cfg.svc.SnapshotEveryBatches == 16
		}},
		{flag: "snapshot-every", args: []string{"-snapshot-every", "-1"}, err: "-snapshot-every -1"},
		{flag: "retain", args: []string{"-retain", "8"}, want: func(p parsed) bool { return p.cfg.storeOpts.Retain == 8 }},
		{flag: "follow", noBase: true, args: []string{"-follow", "http://leader:8080", "-data-dir", "d"}, want: func(p parsed) bool {
			return p.cfg.follow == "http://leader:8080" && reflect.DeepEqual(p.cfg.svc.Follower, &service.FollowerOptions{URL: "http://leader:8080"})
		}},
		{flag: "follow", noBase: true, args: []string{"-follow", "http://leader:8080"}, err: "-follow requires -data-dir"},
		{flag: "max-lag", noBase: true, args: []string{"-follow", "http://l", "-data-dir", "d", "-max-lag", "8"}, want: func(p parsed) bool {
			return p.cfg.svc.Follower.MaxLag == 8
		}},
		{flag: "poll-wait", noBase: true, args: []string{"-follow", "http://l", "-data-dir", "d", "-poll-wait", "2s"}, want: func(p parsed) bool {
			return p.cfg.svc.Follower.PollWait == 2*time.Second
		}},
		{flag: "shards", args: []string{"-shards", "3"}, want: func(p parsed) bool { return p.cfg.shards == 3 }},
		{flag: "shard-key", args: []string{"-shard-key", "CUST.city"}, want: func(p parsed) bool { return p.cfg.shardKey == "CUST.city" }},
		{flag: "worker-urls", args: []string{"-worker-urls", "http://a,http://b"}, want: func(p parsed) bool {
			return p.cfg.workerURLs == "http://a,http://b"
		}},
		{noBase: true, args: []string{"-addr", ":9"}, err: "-table and -constraints are required"},
		{noBase: true, args: []string{"-table", "CUST=cust.csv"}, err: "-table and -constraints are required"},
		// The defaults, and the values that are constants rather than flags.
		{want: func(p parsed) bool {
			return p.sc.addr == ":8080" && !p.sc.pprof && p.cfg.method == core.OrderProbConverge &&
				p.cfg.budget == core.DefaultNodeBudget && p.cfg.storeOpts == store.Options{Fsync: store.FsyncBatch} &&
				reflect.DeepEqual(p.cfg.svc, service.Options{DefaultTimeout: 30 * time.Second, WriteTimeout: writeTimeout})
		}},
	}
	// Settings that are constants, not flags: each is an unknown flag.
	for _, gone := range []string{"nodes-per-sec", "max-batch", "snapshot-bytes", "queue", "fsync-interval",
		"reorder", "reorder-growth", "reorder-min-nodes", "read-header-timeout", "read-timeout", "write-timeout", "idle-timeout",
		"shard-mode", "shard-bounds", "coordinator"} {
		rows = append(rows, argsRow{args: []string{"-" + gone, "1"}, err: "flag provided but not defined: -" + gone})
	}

	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.flag] = true
		args := r.args
		if !r.noBase {
			args = append(append([]string(nil), base...), r.args...)
		}
		cfg, sc, err := parseArgs(args, io.Discard)
		switch {
		case r.err != "" && err == nil:
			t.Errorf("%q: parsed, want an error containing %q", args, r.err)
		case r.err != "" && !strings.Contains(err.Error(), r.err):
			t.Errorf("%q: error %q, want one containing %q", args, err, r.err)
		case r.err == "" && err != nil:
			t.Errorf("%q: %v", args, err)
		case r.err == "" && !r.want(parsed{cfg, sc}):
			t.Errorf("%q: value landed wrong: %+v %+v", args, cfg, sc)
		}
	}
	fs, _ := newFlagSet(io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("flag -%s has no TestParseArgs row: every flag needs a caller", f.Name)
		}
	})
}
