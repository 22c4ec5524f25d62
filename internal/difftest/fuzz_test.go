package difftest

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDifferential feeds arbitrary bytes through ByteChooser into the case
// generator and runs the oracle on the result. Coverage-guided mutation
// therefore explores the space of generator *decisions* — schemas, fills,
// formula shapes, update sequences, the targets drawn last — rather than
// mutating opaque serialized catalogs, so nearly every input is a
// meaningful case. Any byte string decodes (exhausted streams choose 0, and
// draw no target besides the replica), so the target never skips.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// A few dense random decision streams as diverse starting points.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 6; i++ {
		b := make([]byte, 64+rng.Intn(192))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("oversized input")
		}
		c := GenerateCase(&ByteChooser{Data: data})
		mm, err := RunCase(c)
		if err != nil {
			t.Fatalf("hard error: %v\ncase:\n%s", err, SaveCase(c))
		}
		if mm != nil {
			sh := Shrink(c)
			t.Fatalf("%s\nshrunken case:\n%s", mm, SaveCase(sh))
		}
	})
}

// FuzzLoadCase holds the corpus reader to two properties on arbitrary
// bytes: it never panics, and whatever it accepts SaveCase writes back in a
// form it reads as the same case. It never runs a case.
func FuzzLoadCase(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.case"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for i := 0; i < 4; i++ {
		f.Add([]byte(SaveCase(GenerateCase(RNGChooser{Rand: rand.New(rand.NewSource(int64(i)))}))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadCase(data)
		if err != nil {
			return
		}
		saved := SaveCase(c)
		back, err := LoadCase([]byte(saved))
		if err != nil {
			t.Fatalf("a loaded case does not load again: %v\nsaved:\n%s", err, saved)
		}
		if !reflect.DeepEqual(c, back) {
			t.Fatalf("save and load changed the case\nsaved:\n%s\nreloaded:\n%s", saved, SaveCase(back))
		}
	})
}
