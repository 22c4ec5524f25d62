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
//	         [-queue 64] [-timeout 30s] [-nodes-per-sec 0] [-replicas 0] \
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
// -coordinator -worker-urls u0,u1,... the same coordinator runs over
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
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

type tableFlag struct {
	name, path string
}

func main() {
	var tables []tableFlag
	flag.Func("table", "NAME=path.csv (repeatable)", func(s string) error {
		name, path, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want NAME=path.csv, got %q", s)
		}
		tables = append(tables, tableFlag{name, path})
		return nil
	})
	addr := flag.String("addr", ":8080", "listen address")
	share := flag.String("share", "", "comma-separated column names shared across tables")
	constraintsPath := flag.String("constraints", "", "constraints file (required)")
	orderFlag := flag.String("order", "prob", "variable ordering: prob|maxinf|random|schema")
	budget := flag.Int("budget", core.DefaultNodeBudget, "BDD node budget (negative = unlimited)")
	queue := flag.Int("queue", 0, "admission queue depth per request kind (0 = default)")
	maxBatch := flag.Int("max-batch", 0, "max update tuples coalesced per index-maintenance batch (0 = default)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	nodesPerSec := flag.Int("nodes-per-sec", 0, "map request deadlines to BDD node budgets at this rate (0 = off)")
	replicas := flag.Int("replicas", 0, "replicated read-pool size for /check and /witnesses (0 = GOMAXPROCS, negative = disabled)")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes, rejected with 413 beyond it (0 = 8 MiB default, negative = uncapped)")
	slowReq := flag.Duration("slow-request", 0, "log requests slower than this with per-stage spans (0 = off)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	dataDir := flag.String("data-dir", "", "durability directory: WAL + epoch snapshots; warm restart prefers it over CSV")
	fsyncFlag := flag.String("fsync", "batch", "WAL fsync policy: batch|interval|off")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "max time between fsyncs with -fsync interval")
	snapshotEvery := flag.Int("snapshot-every", 0, "write a snapshot after this many update batches (0 = default 64 when -data-dir is set)")
	snapshotBytes := flag.Int64("snapshot-bytes", 0, "write a snapshot when the WAL reaches this size (0 = off)")
	retain := flag.Int("retain", 0, "snapshots retained for ?epoch=N reads (0 = default 4)")
	follow := flag.String("follow", "", "leader base URL: run as a read-only follower replicating its snapshot + WAL (requires -data-dir)")
	maxLag := flag.Uint64("max-lag", 0, "refuse live reads with 503 when more than this many epochs behind the leader (0 = serve at any staleness)")
	pollWait := flag.Duration("poll-wait", 0, "leader /wal long-poll duration (0 = default 10s)")
	reorder := flag.Bool("reorder", false, "sift the BDD variable order between update batches when the kernel grows")
	reorderGrowth := flag.Float64("reorder-growth", 0, "reorder when live nodes exceed this factor of the post-reorder baseline (0 = default 2.0)")
	reorderMinNodes := flag.Int("reorder-min-nodes", 0, "never reorder kernels smaller than this many live nodes (0 = default 4096)")
	shards := flag.Int("shards", 0, "partition the catalog across this many in-process shard kernels behind a scatter-gather coordinator (requires -shard-key)")
	shardKey := flag.String("shard-key", "", "TABLE.COLUMN whose values partition the catalog; tables sharing the column's domain co-partition, others broadcast")
	shardMode := flag.String("shard-mode", "hash", "partitioning function: hash|range")
	shardBounds := flag.String("shard-bounds", "", "comma-separated sorted split points for -shard-mode range (N-1 bounds for N shards)")
	coordinatorMode := flag.Bool("coordinator", false, "serve as a scatter-gather coordinator over external shard workers (requires -worker-urls)")
	workerURLs := flag.String("worker-urls", "", "comma-separated shard worker base URLs in shard order, e.g. http://s0:8080,http://s1:8080")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", time.Minute, "http.Server ReadTimeout")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
	flag.Parse()

	// Without a data directory the CSV flags are mandatory; with one, a warm
	// restart needs neither (boot validates the cold-start combination). A
	// follower bootstraps from the leader, so it only needs the data
	// directory its replicated state lives in.
	if *follow != "" && *dataDir == "" {
		fatal(errors.New("-follow requires -data-dir (the follower's replicated state lives there)"))
	}
	if *follow == "" && *dataDir == "" && (len(tables) == 0 || *constraintsPath == "") {
		flag.Usage()
		os.Exit(2)
	}
	method, err := core.ParseOrderingMethod(*orderFlag)
	if err != nil {
		fatal(err)
	}
	fsync, err := store.ParseFsyncPolicy(*fsyncFlag)
	if err != nil {
		fatal(err)
	}

	shared := map[string]string{}
	if *share != "" {
		for _, col := range strings.Split(*share, ",") {
			shared[strings.TrimSpace(col)] = strings.TrimSpace(col)
		}
	}

	cfg := bootConfig{
		tables:          tables,
		shared:          shared,
		constraintsPath: *constraintsPath,
		method:          method,
		budget:          *budget,
		dataDir:         *dataDir,
		fsync:           fsync,
		fsyncInterval:   *fsyncInterval,
		retain:          *retain,
		follow:          *follow,
		shards:          *shards,
		shardKey:        *shardKey,
		shardMode:       *shardMode,
		shardBounds:     *shardBounds,
		coordinator:     *coordinatorMode,
		workerURLs:      *workerURLs,
		svc: service.Options{
			QueueDepth:           *queue,
			MaxBatch:             *maxBatch,
			DefaultTimeout:       *timeout,
			NodesPerSecond:       *nodesPerSec,
			Replicas:             *replicas,
			MaxBodyBytes:         *maxBody,
			SlowRequest:          *slowReq,
			SnapshotEveryBatches: *snapshotEvery,
			SnapshotWALBytes:     *snapshotBytes,
			Reorder:              *reorder,
			ReorderGrowth:        *reorderGrowth,
			ReorderMinNodes:      *reorderMinNodes,
			WriteTimeout:         *writeTimeout,
		},
		logf: log.Printf,
	}
	if *follow != "" {
		cfg.svc.Follower = &service.FollowerOptions{URL: *follow, MaxLag: *maxLag, PollWait: *pollWait}
	}

	// Every mode is the same daemon from here on: a Backend behind the one
	// HTTP edge, which reads -max-body, -slow-request and -timeout.
	backend, shutdown, err := bootBackend(cfg)
	if err != nil {
		fatal(err)
	}
	handler := service.NewHandler(backend, cfg.svc)
	if *pprofOn {
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

	// The daemon holds client connections open across slow BDD evaluations,
	// so the server timeouts must exist (a default http.Server never times a
	// client out — one slow-written request per connection pins a goroutine
	// and its buffers forever).
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
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

	log.Printf("cvserved listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	shutdown()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cvserved:", err)
	os.Exit(2)
}
