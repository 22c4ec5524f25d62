package bdd_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
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

// TestRefusesSiftedBytes: the functions of TestWriteToMatchesTheFormat as a
// kernel that had sifted its order to (5, 3, 1, 0, 2, 4) wrote them. A
// variable is its level in every kernel, so an order other than the identity
// is refused as corrupt, never read as some other function.
func TestRefusesSiftedBytes(t *testing.T) {
	const sifted = "0042444432060503010002040902000103000102030101020401000300050605000105010004080904070a0701"
	data, _ := hex.DecodeString(sifted)
	if _, err := bdd.ReadImage(bytes.NewReader(data)); !errors.Is(err, bdd.ErrCorrupt) || !strings.Contains(err.Error(), "not the identity") {
		t.Fatalf("sifted bytes: %v, want ErrCorrupt for the order", err)
	}
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

// identity4 is a BDD2 header for four variables: the count and the identity
// order.
const identity4 = "\x04\x00\x01\x02\x03"

// TestLoadRejectsCorruptInput: each input is refused by the check its row
// names. Past the magic, each is well-formed up to its one fault, and the
// BDD2 body of the BDD1 row loads.
func TestLoadRejectsCorruptInput(t *testing.T) {
	cases := []struct{ src, want string }{
		{"", "reading magic"},
		{"junk", "reading magic"},
		{"\x00BDD2", "reading variable count"},
		{"\x00BDD1" + identity4 + "\x00\x00", "bad magic"},
		{"\x00BDD2\x04\x00\x01\x03\x02\x00\x00", "order is not the identity"},
		{"\x00BDD2\x04\x00\x01", "order truncated at level 2"},
		{"\x00BDD2" + identity4 + "\x01\xff\xff", "node 0 truncated"},
		{"\x00BDD2" + identity4 + "\x01\x00\x02\x01\x00", "node 0 out of range"},
		{"\x00BDD2" + identity4 + "\x02\x01\x00\x01\x01\x00\x02\x01\x03", "node 1 is not above its children"},
		{"\x00BDD2" + identity4 + "\x00\x01\x02", "root 0 out of range"},
	}
	for _, c := range cases {
		k := bdd.New(bdd.Config{Vars: 4})
		if _, err := load(k, []byte(c.src)); !errors.Is(err, bdd.ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("load(%q) = %v, want ErrCorrupt for %q", c.src, err, c.want)
		}
	}
	if _, err := load(bdd.New(bdd.Config{Vars: 4}), []byte("\x00BDD2"+identity4+"\x00\x00")); err != nil {
		t.Fatalf("the BDD1 row's body under the BDD2 magic: %v", err)
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

// TestLoadBoundsAllocation feeds headers that declare huge counts with no
// data behind them: ReadImage must refuse them with ErrCorrupt, and no call
// may allocate more than the reader's buffer plus a constant multiple of the
// input's size, so declared counts drive no allocation ahead of the bytes
// behind them. A well-formed image is held to the same bound.
func TestLoadBoundsAllocation(t *testing.T) {
	const header8 = "\x00BDD2\x08\x00\x01\x02\x03\x04\x05\x06\x07"
	k := bdd.New(bdd.Config{Vars: 16})
	rng := rand.New(rand.NewSource(5))
	var roots []bdd.Ref
	for i := 0; i < 8; i++ {
		roots = append(roots, randExpr(rng, 16, 40).build(k))
	}
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"huge node count, no nodes", append([]byte(header8),
			0xff, 0xff, 0xff, 0x07), false}, // node count 2^24-1, then EOF
		{"over-limit node count", append([]byte(header8),
			0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), false}, // node count > 2^31
		{"over-limit var count", append([]byte("\x00BDD2"),
			0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), false}, // vars > 2^31
		{"huge var count, no order", append([]byte("\x00BDD2"),
			0x80, 0x80, 0x80, 0x01), false}, // 2^21 levels no byte backs
		{"huge root count", append([]byte(header8+"\x00"),
			0xff, 0xff, 0xff, 0x07), false}, // 0 nodes, root count 2^24-1, then EOF
		{"well-formed", save(t, k, roots...), true},
	}
	for _, tc := range cases {
		// The least of a few calls: the runtime or another goroutine may
		// allocate during any one of them.
		got := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := bdd.ReadImage(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if tc.ok && err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !tc.ok && !errors.Is(err, bdd.ErrCorrupt) {
				t.Fatalf("%s: error %v does not wrap ErrCorrupt", tc.name, err)
			}
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if bound := uint64(8<<10 + 64*len(tc.data)); got > bound {
			t.Errorf("%s: reading %d bytes allocated %d bytes, bound %d", tc.name, len(tc.data), got, bound)
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
