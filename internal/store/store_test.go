package store_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/store"
)

const fixtureRules = `
	constraint nj_codes:
	    forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908"}.
	constraint supp_city_known:
	    forall c, s: SUPP(c, s) => exists a, s2: CUST(c, a, s2).
	constraint toronto_ontario:
	    forall a, s: CUST("Toronto", a, s) => s = "Ontario".
`

var (
	cities = []string{"Toronto", "Oshawa", "Newark", "Trenton", "Buffalo", "Albany"}
	codes  = []string{"416", "647", "905", "973", "201", "908", "716", "518"}
	states = []string{"Ontario", "NJ", "NY"}
)

// buildFixture creates a two-table checker (shared city/state domains, one
// index per table) with nRows random CUST rows and nRows/2 SUPP rows, plus
// its parsed constraint set.
func buildFixture(t testing.TB, rng *rand.Rand, nRows int) (*core.Checker, []logic.Constraint) {
	t.Helper()
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{
		{Name: "city"}, {Name: "areacode"}, {Name: "state"},
	})
	if err != nil {
		t.Fatal(err)
	}
	supp, err := cat.CreateTable("SUPP", []relation.Column{
		{Name: "city"}, {Name: "state"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRows; i++ {
		cust.Insert(cities[rng.Intn(len(cities))], codes[rng.Intn(len(codes))], states[rng.Intn(len(states))])
	}
	for i := 0; i < nRows/2; i++ {
		supp.Insert(cities[rng.Intn(len(cities))], states[rng.Intn(len(states))])
	}
	chk := core.New(cat, core.Options{})
	for _, name := range []string{"CUST", "SUPP"} {
		if _, err := chk.BuildIndex(name, name, nil, core.OrderProbConverge); err != nil {
			t.Fatal(err)
		}
	}
	cts, err := logic.ParseConstraints(fixtureRules)
	if err != nil {
		t.Fatal(err)
	}
	return chk, cts
}

// randomUpdates generates a batch of inserts and deletes against the fixture
// tables.
func randomUpdates(rng *rand.Rand, n int) []core.Update {
	ups := make([]core.Update, 0, n)
	for i := 0; i < n; i++ {
		op := core.UpdateInsert
		if rng.Intn(3) == 0 {
			op = core.UpdateDelete
		}
		if rng.Intn(2) == 0 {
			ups = append(ups, core.Update{Table: "CUST", Op: op, Values: []string{
				cities[rng.Intn(len(cities))], codes[rng.Intn(len(codes))], states[rng.Intn(len(states))]}})
		} else {
			ups = append(ups, core.Update{Table: "SUPP", Op: op, Values: []string{
				cities[rng.Intn(len(cities))], states[rng.Intn(len(states))]}})
		}
	}
	return ups
}

// assertSameState fails unless both checkers agree on every constraint's
// verdict and (for violated constraints) the exact witness set.
func assertSameState(t *testing.T, want, got *core.Checker, cts []logic.Constraint, label string) {
	t.Helper()
	for _, ct := range cts {
		wres := want.CheckOne(ct)
		gres := got.CheckOne(ct)
		if wres.Err != nil || gres.Err != nil {
			t.Fatalf("%s: constraint %s errored: want %v, got %v", label, ct.Name, wres.Err, gres.Err)
		}
		if wres.Violated != gres.Violated {
			t.Fatalf("%s: constraint %s: verdict %v, restored checker says %v", label, ct.Name, wres.Violated, gres.Violated)
		}
		if !wres.Violated {
			continue
		}
		ww, err := want.ViolationWitnesses(ct, 10000)
		if err != nil {
			t.Fatalf("%s: witnesses of %s: %v", label, ct.Name, err)
		}
		gw, err := got.ViolationWitnesses(ct, 10000)
		if err != nil {
			t.Fatalf("%s: restored witnesses of %s: %v", label, ct.Name, err)
		}
		if diff := difftest.SetDiff(difftest.WitnessSet(ww), difftest.WitnessSet(gw)); diff != "" {
			t.Fatalf("%s: constraint %s witness sets differ: %s", label, ct.Name, diff)
		}
	}
}

// TestSnapshotRestoreRoundTrip is the round-trip property test: across
// random table contents and random update batches, snapshot → restore must
// reproduce every verdict and every witness set exactly.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			chk, cts := buildFixture(t, rng, 8+rng.Intn(20))
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			text := store.RenderConstraints(cts)
			epoch := uint64(1)
			if err := st.WriteSnapshot(chk, text, epoch); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				ups := randomUpdates(rng, 1+rng.Intn(6))
				if applied, err := chk.Apply(ups); err != nil {
					// Deletes of absent rows fail; log the applied prefix
					// exactly like the service does.
					ups = ups[:applied]
				}
				epoch++
				if len(ups) > 0 {
					if err := st.AppendBatch(epoch, ups); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := st.WriteSnapshot(chk, text, epoch); err != nil {
				t.Fatal(err)
			}
			restored, gotText, info, err := st.Recover(core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if info.LastEpoch != epoch {
				t.Fatalf("recovered epoch %d, want %d", info.LastEpoch, epoch)
			}
			if gotText != text {
				t.Fatalf("constraint text changed across snapshot:\n%q\nwant\n%q", gotText, text)
			}
			if _, err := logic.ParseConstraints(gotText); err != nil {
				t.Fatalf("persisted constraint text does not re-parse: %v", err)
			}
			assertSameState(t, chk, restored, cts, "after snapshot restore")
		})
	}
}

// TestRecoverReplaysWAL checks the snapshot+WAL path: batches appended after
// the last snapshot are replayed on recovery and the result matches the live
// checker.
func TestRecoverReplaysWAL(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	chk, cts := buildFixture(t, rng, 12)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(chk, store.RenderConstraints(cts), 1); err != nil {
		t.Fatal(err)
	}
	epoch := uint64(1)
	for i := 0; i < 4; i++ {
		ups := randomUpdates(rng, 3)
		if applied, err := chk.Apply(ups); err != nil {
			ups = ups[:applied]
		}
		epoch++
		if err := st.AppendBatch(epoch, ups); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	restored, _, info, err := st2.Recover(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotEpoch != 1 || info.LastEpoch != epoch || info.ReplayedRecords != 4 {
		t.Fatalf("recovery info %+v, want snapshot 1, last %d, 4 replayed", info, epoch)
	}
	assertSameState(t, chk, restored, cts, "after WAL replay")
}

// TestTornWALTailDropped simulates a crash mid-append: the final record is
// cut short, recovery must drop exactly that record and replay the rest, and
// the truncated log must accept new appends.
func TestTornWALTailDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	chk, cts := buildFixture(t, rng, 12)
	oracle, _ := buildFixture(t, rand.New(rand.NewSource(7)), 12)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(chk, store.RenderConstraints(cts), 1); err != nil {
		t.Fatal(err)
	}
	var batches [][]core.Update
	epoch := uint64(1)
	for i := 0; i < 3; i++ {
		ups := randomUpdates(rng, 3)
		if applied, err := chk.Apply(ups); err != nil {
			ups = ups[:applied]
		}
		epoch++
		if err := st.AppendBatch(epoch, ups); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, ups)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: cut the file 3 bytes short.
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	restored, _, info, err := st2.Recover(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want 2 (torn third dropped)", info.ReplayedRecords)
	}
	if info.DroppedTailBytes == 0 {
		t.Fatal("recovery reported no dropped tail bytes")
	}
	if info.LastEpoch != 3 {
		t.Fatalf("recovered epoch %d, want 3", info.LastEpoch)
	}
	// The restored state must equal the oracle with only the surviving
	// batches applied.
	for _, ups := range batches[:2] {
		if applied, err := oracle.Apply(ups); err != nil || applied != len(ups) {
			t.Fatalf("oracle apply: %d/%d: %v", applied, len(ups), err)
		}
	}
	assertSameState(t, oracle, restored, cts, "after torn-tail recovery")

	// The truncated log keeps working: a new append lands after the valid
	// prefix and survives the next recovery.
	if err := st2.AppendBatch(4, batches[2]); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if _, _, info, err = st3.Recover(core.Options{}); err != nil {
		t.Fatal(err)
	}
	if info.ReplayedRecords != 3 || info.DroppedTailBytes != 0 {
		t.Fatalf("after re-append: %+v, want 3 clean replayed records", info)
	}
}

// TestCheckerAt exercises point-in-time materialization across the
// retention rules.
func TestCheckerAt(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	chk, cts := buildFixture(t, rng, 10)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	text := store.RenderConstraints(cts)

	// Epoch 1: snapshot. Epochs 2-3: WAL on top. Epoch 4: snapshot.
	if err := st.WriteSnapshot(chk, text, 1); err != nil {
		t.Fatal(err)
	}
	states := map[uint64]*core.Checker{}
	freeze := func(epoch uint64) {
		img, snaps, err := chk.ExportIndices()
		if err != nil {
			t.Fatal(err)
		}
		frozen := core.New(chk.Catalog().Clone(), chk.Options())
		if err := frozen.AdoptIndices(img, snaps); err != nil {
			t.Fatal(err)
		}
		states[epoch] = frozen
	}
	freeze(1)
	for epoch := uint64(2); epoch <= 3; epoch++ {
		ups := randomUpdates(rng, 4)
		if applied, err := chk.Apply(ups); err != nil {
			ups = ups[:applied]
		}
		if err := st.AppendBatch(epoch, ups); err != nil {
			t.Fatal(err)
		}
		freeze(epoch)
	}
	if err := st.WriteSnapshot(chk, text, 4); err != nil {
		t.Fatal(err)
	}
	freeze(4)
	for epoch := uint64(5); epoch <= 6; epoch++ {
		ups := randomUpdates(rng, 4)
		if applied, err := chk.Apply(ups); err != nil {
			ups = ups[:applied]
		}
		if err := st.AppendBatch(epoch, ups); err != nil {
			t.Fatal(err)
		}
		freeze(epoch)
	}

	// Retained: snapshot 1, snapshot 4, WAL 5-6. Epochs 1, 4, 5, 6 are
	// servable; 2 and 3 fall between snapshots (their WAL was truncated).
	for _, epoch := range []uint64{1, 4, 5, 6} {
		got, err := st.CheckerAt(epoch, core.Options{})
		if err != nil {
			t.Fatalf("CheckerAt(%d): %v", epoch, err)
		}
		assertSameState(t, states[epoch], got, cts, fmt.Sprintf("epoch %d", epoch))
	}
	for _, epoch := range []uint64{2, 3} {
		if _, err := st.CheckerAt(epoch, core.Options{}); !errors.Is(err, store.ErrEpochNotRetained) {
			t.Fatalf("CheckerAt(%d) = %v, want ErrEpochNotRetained", epoch, err)
		}
	}
	// Epoch 0 predates everything.
	if _, err := st.CheckerAt(0, core.Options{}); !errors.Is(err, store.ErrEpochNotRetained) {
		t.Fatal("CheckerAt(0) should report ErrEpochNotRetained")
	}
}

// TestRetentionPrunes checks that old snapshot files are deleted with their
// manifest entries.
func TestRetentionPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	chk, cts := buildFixture(t, rng, 6)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	text := store.RenderConstraints(cts)
	for epoch := uint64(1); epoch <= 5; epoch++ {
		if err := st.WriteSnapshot(chk, text, epoch); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".cvsnap") {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshot files %v, want 2", len(snaps), snaps)
	}
	if st.LastSnapshotEpoch() != 5 {
		t.Fatalf("last snapshot epoch %d, want 5", st.LastSnapshotEpoch())
	}
}

// TestOpenRefusesDamage covers the refusal paths: newer format version,
// unreadable manifest, and a manifest-less directory with content.
func TestOpenRefusesDamage(t *testing.T) {
	t.Run("newer format", func(t *testing.T) {
		dir := t.TempDir()
		manifest := fmt.Sprintf(`{"format_version": %d, "wal": "wal.log", "snapshots": []}`, store.FormatVersion+1)
		if err := os.WriteFile(filepath.Join(dir, store.ManifestName), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir, store.Options{}); !errors.Is(err, store.ErrNewerFormat) {
			t.Fatalf("Open = %v, want ErrNewerFormat", err)
		}
	})
	t.Run("unreadable manifest", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, store.ManifestName), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir, store.Options{}); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
	})
	t.Run("content without manifest", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "somebody-elses-data"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir, store.Options{}); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open = %v, want ErrCorrupt", err)
		}
	})
	t.Run("fresh dir initializes", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "data")
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if st.HasSnapshot() {
			t.Fatal("fresh store claims a snapshot")
		}
		if _, _, _, err := st.Recover(core.Options{}); !errors.Is(err, store.ErrNoSnapshot) {
			t.Fatalf("Recover on fresh store = %v, want ErrNoSnapshot", err)
		}
	})
}

// TestSnapshotCorruptionDetected flips a byte in a snapshot file: recovery
// must fail with ErrCorrupt (checksum or structure), never succeed or panic.
func TestSnapshotCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	chk, cts := buildFixture(t, rng, 8)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(chk, store.RenderConstraints(cts), 1); err != nil {
		t.Fatal(err)
	}
	st.Close()
	entries, _ := os.ReadDir(dir)
	var snapPath string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".cvsnap") {
			snapPath = filepath.Join(dir, e.Name())
		}
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{10, len(data) / 2, len(data) - 2} {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0xff
		if err := os.WriteFile(snapPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := st2.Recover(core.Options{}); err == nil {
			t.Fatalf("recovery succeeded with byte %d flipped", pos)
		}
		st2.Close()
	}
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.Verify(dir, io.Discard); err != nil {
		t.Fatalf("Verify of the restored-intact directory: %v", err)
	}
}

// TestVerifyAndCompact exercises the offline tooling entry points.
func TestVerifyAndCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	chk, cts := buildFixture(t, rng, 8)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(chk, store.RenderConstraints(cts), 1); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(2, randomUpdates(rng, 2)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	var buf strings.Builder
	if err := store.Verify(dir, &buf); err != nil {
		t.Fatalf("Verify: %v\n%s", err, buf.String())
	}
	// The snapshot's line carries each index's node count, the live one's:
	// reduced ordered BDDs are canonical.
	for name, nodes := range chk.NodeCounts() {
		want := fmt.Sprintf("index %s %d nodes", name, nodes)
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Verify output lacks %q:\n%s", want, buf.String())
		}
	}
	if err := store.Info(dir, io.Discard); err != nil {
		t.Fatalf("Info: %v", err)
	}

	// Orphans: a leftover temp file and an unreferenced snapshot.
	for _, name := range []string{".tmp-snap-zzz", "snap-ffffffffffffffff.cvsnap", "keep.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := store.Compact(dir, &buf); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for name, wantGone := range map[string]bool{
		".tmp-snap-zzz":                true,
		"snap-ffffffffffffffff.cvsnap": true,
		"keep.txt":                     false,
		store.ManifestName:             false,
		"wal.log":                      false,
		store.SnapshotFileName(1):      false,
	} {
		_, err := os.Stat(filepath.Join(dir, name))
		gone := errors.Is(err, os.ErrNotExist)
		if gone != wantGone {
			t.Errorf("after compact, %s gone=%v want %v", name, gone, wantGone)
		}
	}
}
