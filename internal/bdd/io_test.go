package bdd_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bdd"
)

// io_test.go checks the BDD2 byte format: Image.WriteTo and ReadImage round
// trip through Import, and ReadImage rejects damaged bytes with ErrCorrupt.

// save encodes roots of k the way a snapshot does: Export, then WriteTo.
func save(t testing.TB, k *bdd.Kernel, roots ...bdd.Ref) []byte {
	t.Helper()
	img, err := k.Export(roots...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// load decodes data and imports it into k.
func load(k *bdd.Kernel, data []byte) ([]bdd.Ref, error) {
	img, err := bdd.ReadImage(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return k.Import(img)
}

// TestWriteToMatchesTheFormat pins the BDD2 bytes WriteTo produces: a fixed
// pair of functions, with a duplicate and a terminal root, encodes with the
// identity order, and decoding and re-encoding is the identity on the bytes.
func TestWriteToMatchesTheFormat(t *testing.T) {
	const want = "0042444432060001020304050905010001000203000103020101040500030604000104010002080904070a0701"
	k := bdd.New(bdd.Config{Vars: 6})
	f, g := goldenFunctions(k)
	if got := hex.EncodeToString(save(t, k, f, g, f, bdd.True)); got != want {
		t.Fatalf("encoded\n%s\nwant\n%s", got, want)
	}
	reencodes(t, want)
}

// reencodes checks that the hex-encoded BDD2 bytes decode and re-encode to
// themselves.
func reencodes(t *testing.T, golden string) {
	t.Helper()
	data, _ := hex.DecodeString(golden)
	img, err := bdd.ReadImage(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("re-encoded %x, %v", buf.Bytes(), err)
	}
}

// goldenFunctions builds the two functions the golden files hold.
func goldenFunctions(k *bdd.Kernel) (f, g bdd.Ref) {
	f = k.Protect(k.Or(k.And(k.Var(0), k.Var(3)), k.And(k.NVar(5), k.Var(1))))
	g = k.Protect(k.Xor(k.Var(2), k.Var(4)))
	return f, g
}

// TestReadsSiftedBytes: the functions of TestWriteToMatchesTheFormat as a
// kernel that had sifted its order to (5, 3, 1, 0, 2, 4) wrote them. Kernels
// no longer sift, but data directories hold such bytes: imported into a
// kernel whose variables are its levels, fresh or already holding the
// functions, they are the same functions.
func TestReadsSiftedBytes(t *testing.T) {
	const sifted = "0042444432060503010002040902000103000102030101020401000300050605000105010004080904070a0701"
	data, _ := hex.DecodeString(sifted)
	held := bdd.New(bdd.Config{Vars: 6})
	f, g := goldenFunctions(held)
	want := []bdd.Ref{f, g, f, bdd.True}
	fresh := bdd.New(bdd.Config{Vars: 6})
	roots, err := load(fresh, data)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range roots {
		for _, a := range assignments(6) {
			if fresh.Eval(r, a) != held.Eval(want[i], a) {
				t.Fatalf("root %d differs from the function written at %v", i, a)
			}
		}
	}
	if roots, err = load(held, data); err != nil || !slices.Equal(roots, want) {
		t.Fatalf("into a kernel holding the functions: imported %v (%v), want the held refs %v", roots, err, want)
	}
	reencodes(t, sifted)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	const nv = 10
	rng := rand.New(rand.NewSource(71))
	k := bdd.New(bdd.Config{Vars: nv})
	var exprs []*expr
	var roots []bdd.Ref
	for i := 0; i < 5; i++ {
		e := randExpr(rng, nv, 15)
		exprs = append(exprs, e)
		roots = append(roots, k.Protect(e.build(k)))
	}
	data := save(t, k, roots...)

	// Load into a fresh kernel: functions must evaluate identically.
	k2 := bdd.New(bdd.Config{Vars: nv})
	loaded, err := load(k2, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(roots) {
		t.Fatalf("loaded %d roots, want %d", len(loaded), len(roots))
	}
	for i, e := range exprs {
		for _, a := range assignments(nv) {
			if k2.Eval(loaded[i], a) != e.eval(a) {
				t.Fatalf("root %d evaluates differently after load", i)
			}
		}
		if k2.NodeCount(loaded[i]) != k.NodeCount(roots[i]) {
			t.Fatalf("root %d changed size across save/load", i)
		}
	}
}

func TestLoadSharesWithExistingNodes(t *testing.T) {
	const nv = 6
	k := bdd.New(bdd.Config{Vars: nv})
	f := k.Protect(k.And(k.Var(0), k.Or(k.Var(2), k.NVar(4))))
	// Loading into the same kernel re-interns to the identical Ref.
	loaded, err := load(k, save(t, k, f))
	if err != nil {
		t.Fatal(err)
	}
	if loaded[0] != f {
		t.Fatal("reload into the same kernel must return the identical ref")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 4})
	cases := []string{
		"",
		"junk",
		"\x00BDD1",                 // truncated after magic
		"\x00BDD2\x04\x00\x00",     // wrong magic version
		"\x00BDD1\x04\x01\xff\xff", // corrupt node fields
		"\x00BDD1\x04\x02\x01\x00\x01\x01\x00\x02\x01\x03", // node not above its child
	}
	for _, src := range cases {
		if _, err := load(k, []byte(src)); err == nil {
			t.Errorf("load(%q) succeeded, want error", src)
		}
	}
}

// TestLoadRejectsEveryTruncation chops a valid file at every byte boundary:
// each prefix must produce an ErrCorrupt error (except the full file), never
// a panic or an Invalid root.
func TestLoadRejectsEveryTruncation(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 8})
	f := k.Or(k.And(k.Var(0), k.Var(3)), k.And(k.NVar(5), k.Var(7)))
	g := k.Xor(k.Var(1), k.Var(6))
	full := save(t, k, f, g)
	for n := 0; n < len(full); n++ {
		k2 := bdd.New(bdd.Config{Vars: 8})
		roots, err := load(k2, full[:n])
		if err == nil {
			t.Fatalf("load of %d/%d-byte prefix succeeded with %d roots", n, len(full), len(roots))
		}
		if !errors.Is(err, bdd.ErrCorrupt) {
			t.Fatalf("load of %d-byte prefix: error %v does not wrap ErrCorrupt", n, err)
		}
	}
	if _, err := load(k, full); err != nil {
		t.Fatalf("load of the full file failed: %v", err)
	}
}

// TestLoadSurvivesEveryByteCorruption flips every byte of a valid file in
// turn. Each mutation must either fail with an error or load roots that are
// healthy (evaluable, countable) — never panic, never return Invalid.
func TestLoadSurvivesEveryByteCorruption(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 8})
	f := k.Or(k.And(k.Var(0), k.Var(3)), k.NVar(7))
	full := save(t, k, f)
	for i := 0; i < len(full); i++ {
		for _, flip := range []byte{0xff, 0x01, 0x80} {
			mut := append([]byte(nil), full...)
			mut[i] ^= flip
			k2 := bdd.New(bdd.Config{Vars: 8, NodeBudget: 4096})
			roots, err := load(k2, mut)
			if err != nil {
				continue
			}
			for _, r := range roots {
				if r == bdd.Invalid {
					t.Fatalf("byte %d ^ %#x: load returned Invalid without error", i, flip)
				}
				k2.NodeCount(r)
				k2.SatCount(r)
			}
		}
	}
}

// TestLoadBoundsAllocation feeds headers that declare huge node and root
// counts with no data behind them: ReadImage must fail on the missing bytes
// without allocating for the declared counts. The implausible-count guards
// reject anything past 2^31 outright.
func TestLoadBoundsAllocation(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"huge node count, no nodes", append([]byte("\x00BDD1\x08"),
			0xff, 0xff, 0xff, 0x07)}, // count uvarint ≈ 2^30, then EOF
		{"over-limit node count", append([]byte("\x00BDD1\x08"),
			0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)}, // count > 2^31
		{"huge var count", append([]byte("\x00BDD1"),
			0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)}, // vars > 2^31
		{"huge root count", append([]byte("\x00BDD1\x08\x00"),
			0xff, 0xff, 0xff, 0x07)}, // 0 nodes, root count ≈ 2^30, then EOF
		{"version-1 var count", append([]byte("\x00BDD1"),
			0x80, 0x80, 0x80, 0x01)}, // 2^21 identity levels no byte backs
	}
	for _, tc := range cases {
		if _, err := bdd.ReadImage(bytes.NewReader(tc.data)); !errors.Is(err, bdd.ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", tc.name, err)
		}
	}
}

func TestLoadRejectsTooManyVars(t *testing.T) {
	big := bdd.New(bdd.Config{Vars: 12})
	f := big.And(big.Var(0), big.Var(11))
	small := bdd.New(bdd.Config{Vars: 4})
	if _, err := load(small, save(t, big, f)); err == nil {
		t.Fatal("load into a smaller kernel must fail")
	}
}

func TestSaveSharedRootsOnce(t *testing.T) {
	k := bdd.New(bdd.Config{Vars: 6})
	f := k.And(k.Var(0), k.Var(1))
	g := k.Or(f, k.Var(2)) // shares f's nodes
	k2 := bdd.New(bdd.Config{Vars: 6})
	loaded, err := load(k2, save(t, k, f, g, f))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 || loaded[0] != loaded[2] {
		t.Fatal("duplicate roots must load to the same ref")
	}
	// Shared structure is preserved: listing f twice adds no nodes.
	if k2.SharedNodeCount(loaded...) != k2.SharedNodeCount(loaded[0], loaded[1]) {
		t.Fatal("duplicate root changed the shared footprint")
	}
}
