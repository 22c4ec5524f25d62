package main

// boot.go turns the command line into the daemon's service.Backend: mode →
// Backend, whichever form the flags select (bootBackend). For the
// single-kernel forms it builds the checker, constraint set and durability
// store — separated from main so the boot policy is testable: a data
// directory with a snapshot boots warm (snapshot + WAL replay, CSV flags
// ignored), a fresh or absent data directory boots cold from CSV, and a
// damaged data directory refuses to start rather than silently falling back
// to a CSV rebuild that would shadow durable state.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/store"
)

// bootConfig is everything boot needs from the flags.
type bootConfig struct {
	tables          []tableFlag
	shared          map[string]string
	constraintsPath string
	method          core.OrderingMethod
	budget          int

	dataDir   string
	storeOpts store.Options

	// follow is the leader's base URL in follower mode. An empty data
	// directory then bootstraps from the leader's newest snapshot instead of
	// CSV files; CSV and constraints flags are not required.
	follow string

	// The sharded slice of the command line (see shardboot.go).
	shards      int
	shardKey    string
	coordinator bool
	workerURLs  string

	// svc carries the service-level flags. The HTTP edge reads its share in
	// every mode; the rest configures the single-kernel server only.
	svc service.Options

	logf func(format string, args ...any)
}

// bootBackend assembles whichever daemon form the flags select and returns
// it as the Backend the HTTP edge serves, plus its shutdown hook.
func bootBackend(cfg bootConfig) (service.Backend, func(), error) {
	if cfg.shards > 0 || cfg.coordinator || cfg.workerURLs != "" {
		coord, err := bootSharded(cfg)
		if err != nil {
			return nil, nil, err
		}
		return coord.Backend(), coord.Close, nil
	}
	res, err := boot(cfg)
	if err != nil {
		return nil, nil, err
	}
	closeStore := func() {
		if res.st != nil {
			if err := res.st.Close(); err != nil {
				cfg.logf("closing data directory: %v", err)
			}
		}
	}
	opts := cfg.svc
	opts.Store, opts.InitialEpoch = res.st, res.initialEpoch
	srv, err := service.New(res.chk, res.constraints, opts)
	if err != nil {
		closeStore()
		return nil, nil, err
	}
	for _, name := range srv.Constraints() {
		cfg.logf("constraint %s registered", name)
	}
	return srv, func() { srv.Close(); closeStore() }, nil
}

// bootResult is the assembled server state.
type bootResult struct {
	chk         *core.Checker
	constraints []logic.Constraint
	st          *store.Store // nil without -data-dir
	// initialEpoch seeds service.Options.InitialEpoch: the recovered epoch
	// on a warm boot, 1 otherwise.
	initialEpoch uint64
	// warm is true when the state came from the data directory, not CSV.
	warm bool
}

// boot assembles the checker and (optionally) the durability store. It never
// falls back from a damaged data directory to CSV: store.Open and Recover
// errors propagate, and main exits non-zero on them.
func boot(cfg bootConfig) (*bootResult, error) {
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	if cfg.dataDir == "" {
		return bootCold(cfg, nil)
	}
	st, err := store.Open(cfg.dataDir, cfg.storeOpts)
	if err != nil {
		return nil, fmt.Errorf("opening data directory %s: %w", cfg.dataDir, err)
	}
	res, err := func() (*bootResult, error) {
		if cfg.follow != "" && !st.HasSnapshot() {
			// Fresh follower: its first state is the leader's, never CSV.
			if err := fetchInitialSnapshot(cfg, st); err != nil {
				return nil, err
			}
			return bootWarm(cfg, st)
		}
		if st.HasSnapshot() {
			return bootWarm(cfg, st)
		}
		return bootCold(cfg, st)
	}()
	if err != nil {
		st.Close()
		return nil, err
	}
	return res, nil
}

// bootWarm restores the checker from the newest snapshot plus WAL replay.
// Table flags are ignored (the data directory is the source of truth); a
// -constraints flag overrides the snapshot's persisted constraint text.
func bootWarm(cfg bootConfig, st *store.Store) (*bootResult, error) {
	if len(cfg.tables) > 0 {
		cfg.logf("data directory has a snapshot; ignoring %d -table flag(s)", len(cfg.tables))
	}
	chk, text, info, err := st.Recover(core.Options{NodeBudget: cfg.budget})
	if err != nil {
		return nil, fmt.Errorf("recovering from %s: %w", cfg.dataDir, err)
	}
	if cfg.constraintsPath != "" {
		src, err := os.ReadFile(cfg.constraintsPath)
		if err != nil {
			return nil, err
		}
		text = string(src)
	}
	constraints, err := logic.ParseConstraints(text)
	if err != nil {
		return nil, fmt.Errorf("parsing recovered constraints: %w", err)
	}
	cfg.logf("warm restart from %s: epoch %d (snapshot %d, %d WAL records / %d tuples replayed)",
		cfg.dataDir, info.LastEpoch, info.SnapshotEpoch, info.ReplayedRecords, info.ReplayedTuples)
	if info.DroppedTailBytes > 0 {
		cfg.logf("dropped %d-byte torn WAL tail (unacknowledged writes from the crash)", info.DroppedTailBytes)
	}
	epoch := info.LastEpoch
	if epoch == 0 {
		epoch = 1
	}
	return &bootResult{chk: chk, constraints: constraints, st: st, initialEpoch: epoch, warm: true}, nil
}

// fetchInitialSnapshot pulls the leader's newest snapshot into the empty
// store, retrying briefly so a follower and its leader can start together.
func fetchInitialSnapshot(cfg bootConfig, st *store.Store) error {
	const attempts = 5
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(time.Duration(i) * 500 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		var epoch uint64
		epoch, err = service.FetchSnapshot(ctx, nil, cfg.follow, st)
		cancel()
		if err == nil {
			cfg.logf("bootstrapped from %s: snapshot at epoch %d", cfg.follow, epoch)
			return nil
		}
		cfg.logf("snapshot fetch from %s (attempt %d/%d): %v", cfg.follow, i+1, attempts, err)
	}
	return fmt.Errorf("bootstrapping from leader %s: %w", cfg.follow, err)
}

// loadCatalog reads the CSV tables and the constraints file — the shared
// front half of every cold boot, including the sharded forms.
func loadCatalog(cfg bootConfig) (*relation.Catalog, []logic.Constraint, error) {
	cat := relation.NewCatalog()
	for _, tf := range cfg.tables {
		t, err := cat.ReadCSVFile(tf.name, tf.path, cfg.shared)
		if err != nil {
			return nil, nil, err
		}
		cfg.logf("loaded %s: %d rows, %d columns", t.Name(), t.Len(), t.NumCols())
	}
	src, err := os.ReadFile(cfg.constraintsPath)
	if err != nil {
		return nil, nil, err
	}
	constraints, err := logic.ParseConstraints(string(src))
	if err != nil {
		return nil, nil, err
	}
	return cat, constraints, nil
}

// bootCold builds the checker from CSV files and the constraints file. With
// a (fresh) store, it seals the loaded state as the epoch-1 snapshot so a
// restart never needs the CSV files again.
func bootCold(cfg bootConfig, st *store.Store) (*bootResult, error) {
	if len(cfg.tables) == 0 {
		if st != nil {
			return nil, errors.New("empty data directory and no -table flags: nothing to serve")
		}
		return nil, errors.New("no -table flags: nothing to serve")
	}
	if cfg.constraintsPath == "" {
		return nil, errors.New("-constraints is required")
	}
	cat, constraints, err := loadCatalog(cfg)
	if err != nil {
		return nil, err
	}
	chk := core.New(cat, core.Options{NodeBudget: cfg.budget})
	for _, tf := range cfg.tables {
		ix, err := chk.BuildIndex(tf.name, tf.name, nil, cfg.method)
		if err != nil {
			cfg.logf("index %s: %v (constraints on it fall back to SQL)", tf.name, err)
			continue
		}
		cfg.logf("index %s: %d nodes", tf.name, ix.NodeCount())
	}
	res := &bootResult{chk: chk, constraints: constraints, st: st, initialEpoch: 1}
	if st != nil {
		if err := st.WriteSnapshot(chk, store.RenderConstraints(constraints), 1); err != nil {
			return nil, fmt.Errorf("writing initial snapshot: %w", err)
		}
		cfg.logf("sealed initial snapshot at epoch 1 in %s", cfg.dataDir)
	}
	return res, nil
}
