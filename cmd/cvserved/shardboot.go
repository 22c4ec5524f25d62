package main

// shardboot.go assembles the horizontally sharded daemon forms:
//
//	-shards N -shard-key TABLE.COL          N in-process shard kernels behind
//	                                        one scatter-gather coordinator in
//	                                        this process.
//	-worker-urls u1,u2,... -shard-key T.C   coordinator only; each URL is an
//	                                        ordinary single-kernel cvserved
//	                                        serving that shard's partition
//	                                        (cut offline with cvshard).
//
// Both forms boot cold from CSV: the coordinator needs the full catalog to
// plan constraint decomposition and to back its residual checker, so
// -table/-constraints stay mandatory and the durability flags (-data-dir,
// -follow) are refused — per-shard durability belongs to the workers.

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/shard"
)

// bootSharded builds the coordinator for either sharded form.
func bootSharded(cfg bootConfig) (*shard.Coordinator, error) {
	if cfg.dataDir != "" || cfg.follow != "" {
		return nil, errors.New("sharded modes boot cold from CSV: -data-dir and -follow belong on the shard workers, not the coordinator")
	}
	if cfg.shardKey == "" {
		return nil, errors.New("sharded modes require -shard-key TABLE.COLUMN")
	}
	key, err := shard.ParseKey(cfg.shardKey)
	if err != nil {
		return nil, err
	}

	var urls []string
	n := cfg.shards
	if cfg.workerURLs != "" {
		for _, u := range strings.Split(cfg.workerURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return nil, errors.New("-worker-urls names no workers")
		}
		if n > 0 && n != len(urls) {
			return nil, fmt.Errorf("-shards %d disagrees with %d -worker-urls entries", n, len(urls))
		}
		n = len(urls)
	}
	if n <= 0 {
		return nil, errors.New("-shards must be positive")
	}

	cat, constraints, err := loadCatalog(cfg)
	if err != nil {
		return nil, err
	}
	part, err := shard.NewPartitioner(cat, key, n, shard.HashMode, nil)
	if err != nil {
		return nil, err
	}
	opts := shard.Options{
		NodeBudget: cfg.budget,
		Method:     cfg.method,
		Logf:       cfg.logf,
	}

	if len(urls) > 0 {
		workers := make([]shard.Worker, n)
		for i, u := range urls {
			workers[i] = shard.NewHTTPWorker(i, u, nil)
		}
		cfg.logf("coordinator over %d HTTP shard workers, key %s", n, cfg.shardKey)
		return shard.NewCoordinator(cat, constraints, part, workers, opts)
	}
	cfg.logf("coordinator over %d in-process shards, key %s", n, cfg.shardKey)
	return shard.NewInProcess(cat, constraints, part, opts)
}
