// Command cvserved runs the constraint-checking system as a long-lived
// HTTP/JSON daemon. It bootstraps tables from CSV files, builds the logical
// indices once, registers a set of named constraints, and then serves
// checks, violation-witness queries and incremental updates over HTTP,
// serializing all BDD work through internal/service's single kernel worker.
//
// Usage:
//
//	cvserved -addr :8080 \
//	         -table CUST=cust.csv -table CONS=cons.csv \
//	         -share city,areacode \
//	         -constraints rules.txt [-order prob] [-budget 1000000] \
//	         [-timeout 30s] [-replicas 0] \
//	         [-data-dir /var/lib/cv -fsync batch -snapshot-every 64 -retain 4]
//
// With -data-dir, every acknowledged update batch is WAL-logged before its
// acknowledgment and periodic snapshots seal the state; a restart with the
// same -data-dir boots from snapshot + WAL replay, ignoring the CSV flags,
// and /check accepts ?epoch=N for point-in-time reads at retained epochs.
// A damaged or newer-format data directory refuses to start (no silent CSV
// fallback). cvstore inspects, verifies and compacts the directory offline.
//
// With -shards N -shard-key TABLE.COL the daemon partitions the catalog by
// the key column's values across N in-process shard kernels behind a
// scatter-gather coordinator: shard-local constraints fan out and merge,
// the rest run on a residual kernel over the full catalog. With
// -worker-urls u0,u1,... -shard-key TABLE.COL the same coordinator runs over
// external single-kernel cvserved workers, each serving one partition (cut
// offline with cvshard). Both forms boot cold from CSV and refuse
// -data-dir/-follow; /statsz gains a per-shard block and /metricsz rolls up
// cv_shard_* series labeled by shard.
//
// With -follow <leader-url> (requires -data-dir) the daemon runs as a
// read-only follower: an empty data directory bootstraps from the leader's
// newest snapshot, then the leader's WAL is tailed over /wal long-polls and
// every acknowledged epoch is applied through the same incremental
// maintenance path, logged locally, and published to the read pool. /check
// and /witnesses serve as usual (-max-lag bounds their staleness); /update
// answers 421 naming the leader. Any server with -data-dir serves GET
// /snapshot/{epoch} and GET /wal, so followers can chain.
//
// Endpoints:
//
//	POST /check      {"constraints": ["nj_codes"], "text": "...", "timeout_ms": 500, "node_budget": 0}
//	POST /witnesses  {"constraint": "nj_codes", "limit": 10}
//	POST /update     {"updates": [{"table": "CUST", "op": "insert", "values": ["Toronto","416","Ontario"]}]}
//	GET  /healthz
//	GET  /statsz
//	GET  /metricsz   (Prometheus text exposition)
//
// Replies are compact JSON, one document per line, e.g. for /check
//
//	{"results":[{"name":"nj_codes","violated":true,"method":"bdd","duration_ns":412873}],"epoch":7}
//
// where epoch (present with -data-dir) is the epoch of the index version the
// results were decided on. A registered constraint re-checked while no table
// has changed is answered from the server's verdict memo: same verdict,
// duration_ns 0, no kernel work.
//
// Appending ?trace=1 to the POST endpoints returns per-stage spans with BDD
// kernel deltas. -pprof additionally serves net/http/pprof under
// /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

// The http.Server timeouts. The daemon holds client connections open across
// slow BDD evaluations, so they must exist: a default http.Server never
// times a client out, and one slow-written request per connection pins a
// goroutine and its buffers forever.
const (
	readHeaderTimeout = 10 * time.Second // slowloris guard
	readTimeout       = time.Minute
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// servingGCPercent is the Go collector's GOGC once the daemon serves. The
// serving heap is mostly the kernels' node tables and op caches, which grow
// in steps of several MB; at Go's default of 100 the heap goal is twice
// whatever was live at the last cycle, so the peak moved by twice a table
// step with whether that cycle ran before or after a replica's table grew
// (106 or 118 MB, run to run, on the benchmark's adhoc_cold on a 2-CPU
// host). At 50 the peak is about 1.5 times the settled live heap, which
// repeats (88–93 MB there). Boot keeps the default: its garbage (CSV
// parsing, the index build) is transient.
const servingGCPercent = 50

// tuneServingGC sets servingGCPercent unless the environment sets GOGC,
// which wins.
func tuneServingGC() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(servingGCPercent)
	}
}

type tableFlag struct {
	name, path string
}

// serveConfig is what the HTTP server around the Backend needs from the
// flags.
type serveConfig struct {
	addr  string
	pprof bool
}

func main() {
	cfg, sc, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fatal(err)
	}
	cfg.logf = log.Printf

	// Every mode is the same daemon from here on: a Backend behind the one
	// HTTP edge, which reads -max-body, -slow-request and -timeout.
	backend, shutdown, err := bootBackend(cfg)
	if err != nil {
		fatal(err)
	}
	tuneServingGC()
	handler := service.NewHandler(backend, cfg.svc)
	if sc.pprof {
		// The service mux only routes its own endpoints, so pprof mounts on a
		// wrapper mux rather than http.DefaultServeMux (which other packages
		// could pollute).
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled under /debug/pprof/")
	}

	httpSrv := &http.Server{
		Addr:              sc.addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			httpSrv.Close()
		}
	}()

	log.Printf("cvserved listening on %s", sc.addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	shutdown()
}

// parseArgs turns the command line into the boot configuration and the
// listener settings. Usage and parse errors go to stderr.
func parseArgs(args []string, stderr io.Writer) (bootConfig, serveConfig, error) {
	fs, finish := newFlagSet(stderr)
	if err := fs.Parse(args); err != nil {
		return bootConfig{}, serveConfig{}, err
	}
	return finish()
}

// newFlagSet declares the daemon's flags on a fresh FlagSet. finish, called
// once the set has parsed, checks the values and assembles them.
func newFlagSet(stderr io.Writer) (fs *flag.FlagSet, finish func() (bootConfig, serveConfig, error)) {
	fs = flag.NewFlagSet("cvserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg bootConfig
	var sc serveConfig
	var follower service.FollowerOptions
	fs.Func("table", "NAME=path.csv (repeatable)", func(s string) error {
		name, path, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want NAME=path.csv, got %q", s)
		}
		cfg.tables = append(cfg.tables, tableFlag{name, path})
		return nil
	})
	fs.StringVar(&sc.addr, "addr", ":8080", "listen address")
	share := fs.String("share", "", "comma-separated column names shared across tables")
	fs.StringVar(&cfg.constraintsPath, "constraints", "", "constraints file (required)")
	order := fs.String("order", "prob", "variable ordering: prob|maxinf|random|schema")
	fs.IntVar(&cfg.budget, "budget", core.DefaultNodeBudget, "BDD node budget (negative = unlimited)")
	fs.DurationVar(&cfg.svc.DefaultTimeout, "timeout", 30*time.Second, "default per-request deadline")
	fs.IntVar(&cfg.svc.Replicas, "replicas", 0, "replicated read-pool size for /check and /witnesses (0 = GOMAXPROCS, negative = disabled)")
	fs.Int64Var(&cfg.svc.MaxBodyBytes, "max-body", 0, "request body cap in bytes, rejected with 413 beyond it (0 = 8 MiB default, negative = uncapped)")
	fs.DurationVar(&cfg.svc.SlowRequest, "slow-request", 0, "log requests slower than this with per-stage spans (0 = off)")
	fs.BoolVar(&sc.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "durability directory: WAL + epoch snapshots; warm restart prefers it over CSV")
	fsync := fs.String("fsync", "batch", "WAL fsync policy: batch|interval (at most one fsync per 100ms)|off")
	fs.IntVar(&cfg.svc.SnapshotEveryBatches, "snapshot-every", 0, "write a snapshot after this many update batches (0 = default 64 when -data-dir is set)")
	fs.IntVar(&cfg.storeOpts.Retain, "retain", 0, "snapshots retained for ?epoch=N reads (0 = default 4)")
	fs.StringVar(&cfg.follow, "follow", "", "leader base URL: run as a read-only follower replicating its snapshot + WAL (requires -data-dir)")
	fs.Uint64Var(&follower.MaxLag, "max-lag", 0, "refuse live reads with 503 when more than this many epochs behind the leader (0 = serve at any staleness)")
	fs.DurationVar(&follower.PollWait, "poll-wait", 0, "leader /wal long-poll duration (0 = default 10s)")
	fs.IntVar(&cfg.shards, "shards", 0, "partition the catalog across this many in-process shard kernels behind a scatter-gather coordinator (requires -shard-key)")
	fs.StringVar(&cfg.shardKey, "shard-key", "", "TABLE.COLUMN whose values partition the catalog; tables sharing the column's domain co-partition, others broadcast")
	fs.StringVar(&cfg.workerURLs, "worker-urls", "", "serve as a scatter-gather coordinator over these external shard workers: comma-separated base URLs in shard order, e.g. http://s0:8080,http://s1:8080 (requires -shard-key)")

	finish = func() (bootConfig, serveConfig, error) {
		fail := func(err error) (bootConfig, serveConfig, error) { return bootConfig{}, serveConfig{}, err }
		// Without a data directory the CSV flags are mandatory; with one, a
		// warm restart needs neither (boot validates the cold-start
		// combination). A follower bootstraps from the leader, so it only
		// needs the data directory its replicated state lives in.
		if cfg.follow != "" && cfg.dataDir == "" {
			return fail(errors.New("-follow requires -data-dir (the follower's replicated state lives there)"))
		}
		if cfg.follow == "" && cfg.dataDir == "" && (len(cfg.tables) == 0 || cfg.constraintsPath == "") {
			fs.Usage()
			return fail(errors.New("-table and -constraints are required without -data-dir"))
		}
		// A daemon that never snapshots never truncates its WAL, and its
		// every restart replays each batch it ever took.
		if cfg.svc.SnapshotEveryBatches < 0 {
			return fail(fmt.Errorf("-snapshot-every %d: want a positive batch count, or 0 for the default", cfg.svc.SnapshotEveryBatches))
		}
		var err error
		if cfg.method, err = core.ParseOrderingMethod(*order); err != nil {
			return fail(err)
		}
		if cfg.storeOpts.Fsync, err = store.ParseFsyncPolicy(*fsync); err != nil {
			return fail(err)
		}
		cfg.shared = map[string]string{}
		if *share != "" {
			for _, col := range strings.Split(*share, ",") {
				cfg.shared[strings.TrimSpace(col)] = strings.TrimSpace(col)
			}
		}
		cfg.svc.WriteTimeout = writeTimeout
		if cfg.follow != "" {
			follower.URL = cfg.follow
			cfg.svc.Follower = &follower
		}
		return cfg, sc, nil
	}
	return fs, finish
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cvserved:", err)
	os.Exit(2)
}
