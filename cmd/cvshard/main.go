// Command cvshard cuts CSV tables into per-shard directories for the
// multi-process sharded deployment: each output directory holds one
// partition of every table, ready to boot an ordinary single-kernel
// cvserved as that shard's worker.
//
// Usage:
//
//	cvshard -shards 4 -key CUST.city \
//	        -table CUST=cust.csv -table SUPP=supp.csv \
//	        -share city,state -out ./shards
//
// Partitioning follows the same rules as the cvserved coordinator: rows of
// the key table and of every table with a column over the key's domain go
// to the owning shard (FNV-1a hash of the value, mod the shard count);
// tables without such a column are broadcast in full to every shard. The
// output layout is out/shard<i>/<TABLE>.csv.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/relation"
	"repro/internal/shard"
)

func main() {
	var tables []string
	flag.Func("table", "NAME=path.csv (repeatable)", func(s string) error {
		if !strings.Contains(s, "=") {
			return fmt.Errorf("want NAME=path.csv, got %q", s)
		}
		tables = append(tables, s)
		return nil
	})
	shards := flag.Int("shards", 0, "number of partitions (required)")
	keyFlag := flag.String("key", "", "TABLE.COLUMN partitioning key (required)")
	var shared map[string]string
	flag.Func("share", relation.ShareUsage, func(s string) (err error) { shared, err = relation.ParseShare(s); return err })
	out := flag.String("out", "", "output directory (required); writes out/shard<i>/<TABLE>.csv")
	flag.Parse()

	if *shards <= 0 || *keyFlag == "" || *out == "" || len(tables) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	key, err := shard.ParseKey(*keyFlag)
	if err != nil {
		fatal(err)
	}

	cat := relation.NewCatalog()
	for _, tf := range tables {
		name, path, _ := strings.Cut(tf, "=")
		t, err := cat.ReadCSVFile(name, path, shared)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s: %d rows\n", t.Name(), t.Len())
	}
	part, err := shard.NewPartitioner(cat, key, *shards, shard.HashMode, nil)
	if err != nil {
		fatal(err)
	}

	for i, pc := range part.Split(cat) {
		dir := filepath.Join(*out, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		for _, t := range pc.Tables() {
			f, err := os.Create(filepath.Join(dir, t.Name()+".csv"))
			if err != nil {
				fatal(err)
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			kind := "partitioned"
			if part.PartitionColumn(t) < 0 {
				kind = "broadcast"
			}
			fmt.Printf("shard%d/%s.csv: %d rows (%s)\n", i, t.Name(), t.Len(), kind)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cvshard:", err)
	os.Exit(2)
}
