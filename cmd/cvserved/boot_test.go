package main

// boot_test.go pins the boot policy: cold boots come from CSV and seal an
// initial snapshot, warm boots come from the data directory alone (the CSV
// flags may point at nonexistent files), and a damaged or newer-format data
// directory refuses to start instead of silently rebuilding from CSV.

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

const bootRules = `
	constraint nj_codes:
	    forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908"}.
`

// writeFixtureFiles lays out a CSV table and a constraints file.
func writeFixtureFiles(t *testing.T) (csvPath, rulesPath string) {
	t.Helper()
	dir := t.TempDir()
	csvPath = filepath.Join(dir, "cust.csv")
	rulesPath = filepath.Join(dir, "rules.txt")
	csv := "city,areacode,state\nToronto,416,Ontario\nNewark,416,NJ\nNewark,973,NJ\n"
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rulesPath, []byte(bootRules), 0o644); err != nil {
		t.Fatal(err)
	}
	return csvPath, rulesPath
}

func violated(t *testing.T, res *bootResult, name string) bool {
	t.Helper()
	for _, ct := range res.constraints {
		if ct.Name == name {
			r := res.chk.CheckOne(ct)
			if r.Err != nil {
				t.Fatalf("checking %s: %v", name, r.Err)
			}
			return r.Violated
		}
	}
	t.Fatalf("constraint %s not registered", name)
	return false
}

func TestBootColdThenWarm(t *testing.T) {
	csvPath, rulesPath := writeFixtureFiles(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	cfg := bootConfig{
		tables:          []tableFlag{{"CUST", csvPath}},
		constraintsPath: rulesPath,
		method:          core.OrderProbConverge,
		dataDir:         dataDir,
		logf:            t.Logf,
	}
	res, err := boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.warm {
		t.Fatal("first boot reported warm")
	}
	if res.initialEpoch != 1 {
		t.Fatalf("cold boot epoch = %d, want 1", res.initialEpoch)
	}
	if !res.st.HasSnapshot() {
		t.Fatal("cold boot did not seal an initial snapshot")
	}
	if !violated(t, res, "nj_codes") {
		t.Fatal("nj_codes should be violated in the fixture")
	}
	if err := res.st.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm boot: the CSV and rules files no longer exist, so any attempt to
	// read them fails the test — the data directory must carry everything.
	if err := os.Remove(csvPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(rulesPath); err != nil {
		t.Fatal(err)
	}
	cfg2 := bootConfig{
		tables:  []tableFlag{{"CUST", csvPath}},
		dataDir: dataDir,
		logf:    t.Logf,
	}
	res2, err := boot(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer res2.st.Close()
	if !res2.warm {
		t.Fatal("second boot with a snapshot was not warm")
	}
	if got := res2.chk.Catalog().Table("CUST").Len(); got != 3 {
		t.Fatalf("recovered CUST has %d rows, want 3", got)
	}
	if !violated(t, res2, "nj_codes") {
		t.Fatal("recovered state lost the nj_codes violation")
	}
}

func TestBootRefusesDamagedDataDir(t *testing.T) {
	csvPath, rulesPath := writeFixtureFiles(t)
	base := bootConfig{
		tables:          []tableFlag{{"CUST", csvPath}},
		constraintsPath: rulesPath,
		method:          core.OrderProbConverge,
		logf:            t.Logf,
	}

	t.Run("newer format version", func(t *testing.T) {
		dir := t.TempDir()
		manifest := `{"format_version": 99, "wal": "wal.log", "snapshots": []}`
		if err := os.WriteFile(filepath.Join(dir, store.ManifestName), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.dataDir = dir
		if _, err := boot(cfg); !errors.Is(err, store.ErrNewerFormat) {
			t.Fatalf("boot err = %v, want ErrNewerFormat", err)
		}
	})

	t.Run("unreadable manifest", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, store.ManifestName), []byte("{nope"), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.dataDir = dir
		_, err := boot(cfg)
		if err == nil {
			t.Fatal("boot accepted an unreadable manifest")
		}
		if !strings.Contains(err.Error(), dir) {
			t.Errorf("error does not name the directory: %v", err)
		}
	})

	// Snapshots this build does not read: the directory is refused as
	// corrupt, although the CSV flags would rebuild a working state, and is
	// left as it was.
	for _, fx := range []struct {
		name, file string
		epoch      uint64
	}{
		{"format-1 snapshot", "format1.snap", 3},
		{"sifted snapshot", "sifted.snap", 5},
	} {
		t.Run(fx.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "internal", "store", "testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.InstallSnapshot(bytes.NewReader(data), fx.epoch, int64(len(data)), crc32.ChecksumIEEE(data)); err != nil {
				t.Fatal(err)
			}
			st.Close()
			cfg := base
			cfg.dataDir = dir
			if _, err := boot(cfg); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("boot err = %v, want ErrCorrupt", err)
			}
			st, err = store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := st.Status(); got.Snapshots != 1 || got.LastSnapshotEpoch != fx.epoch {
				t.Fatalf("after the refusal the directory holds %d snapshots, the last at epoch %d; want only the fixture's", got.Snapshots, got.LastSnapshotEpoch)
			}
		})
	}

	t.Run("content without manifest", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.dataDir = dir
		if _, err := boot(cfg); err == nil {
			t.Fatal("boot accepted a data directory with content but no manifest")
		}
	})
}

func TestBootEmptyDataDirNeedsTables(t *testing.T) {
	cfg := bootConfig{
		dataDir: filepath.Join(t.TempDir(), "data"),
		logf:    t.Logf,
	}
	if _, err := boot(cfg); err == nil {
		t.Fatal("boot accepted an empty data directory with no tables")
	}
}
