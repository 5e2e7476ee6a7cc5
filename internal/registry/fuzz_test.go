package registry_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"insitu/internal/registry"

	// Registers the "poison" drill analysis the tenants example names.
	_ "insitu/internal/workload"
)

// FuzzParseConfig fuzzes the launcher's one input surface, seeded with
// every checked-in example config. ParseConfig must never panic, and
// every input it accepts must reach a fixed point after one
// normalisation: marshaling the parsed config and parsing that again
// yields the same bytes.
func FuzzParseConfig(f *testing.F) {
	paths, err := filepath.Glob("../../examples/configs/*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no example configs to seed the corpus")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := registry.ParseConfig(data)
		if err != nil {
			return
		}
		once, err := cfg.Marshal()
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		back, err := registry.ParseConfig(once)
		if err != nil {
			t.Fatalf("marshaled config no longer parses: %v\n%s", err, once)
		}
		twice, err := back.Marshal()
		if err != nil {
			t.Fatalf("re-parsed config does not marshal: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("not a fixed point after one normalisation:\n%s\nvs\n%s", once, twice)
		}
	})
}
