package thingpedia

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grammar"
)

// FuzzLibraryParse feeds arbitrary bytes to ParseLibrary, the parser the
// fleet runs on every <skill>.tt file in its library directory. Any input
// must give a library or an error, never a panic, and a parsed library must
// survive what the fleet does with it next: its checksum (the same for the
// same bytes), its function list and a grammar spec built from that list.
// Seeds: the example fleet skills and a built-in class.
func FuzzLibraryParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "fleet", "skills", "*.tt"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example skill libraries found: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add([]byte(builtinIoT))
	f.Fuzz(func(t *testing.T, src []byte) {
		lib, err := ParseLibrary(string(src))
		if err != nil {
			return // rejected without panicking: fine
		}
		sum := lib.Checksum()
		if again, err := ParseLibrary(string(src)); err != nil || again.Checksum() != sum {
			t.Fatalf("reparsing the same bytes changed the outcome: err %v", err)
		}
		grammar.NewSpec(lib.Functions())
	})
}
