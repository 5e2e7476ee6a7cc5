package workload

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"insitu/internal/registry"
)

// configsDir is the checked-in example-config directory, relative to
// this package (tests run in the package directory).
const configsDir = "../../examples/configs"

// TestExampleConfigsLoad: every checked-in example must strictly
// decode and validate — the same gate `make configs` runs in CI.
func TestExampleConfigsLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(configsDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no example configs under %s", configsDir)
	}
	for _, path := range paths {
		if _, err := registry.LoadConfig(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// pinned asserts a checked-in example file is byte-identical to its
// code-generated source config. This is what makes the examples
// executable documentation: drift in either direction fails CI, and
// the soaks that build the source config run exactly the pipeline
// `s3dpipe -config` runs from the file.
func pinned(t *testing.T, file string, cfg *registry.Config) {
	t.Helper()
	want, err := cfg.Marshal()
	if err != nil {
		t.Fatalf("%s: marshal source config: %v", file, err)
	}
	got, err := os.ReadFile(filepath.Join(configsDir, file))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its code-generated source config.\nRegenerate it from Config.Marshal().\n--- file ---\n%s--- source ---\n%s",
			file, got, want)
	}
}

func TestTenantsExamplePinned(t *testing.T) {
	pinned(t, "tenants.json", TenantsConfig(true))
}

func TestBrownoutExamplePinned(t *testing.T) {
	pinned(t, "brownout.json", BrownoutConfig(true))
}

// TestScenarioConfigsRoundTrip: the scenario configs and every
// checked-in example survive a marshal/parse round trip unchanged —
// what guarantees a user can marshal a config, edit it, and reload it
// without surprises. Each example file must also say exactly what its
// loaded config holds: the file and the marshaled config decode to the
// same JSON tree, so no key in the file is dropped, defaulted or
// renamed on load.
func TestScenarioConfigsRoundTrip(t *testing.T) {
	roundTrip := func(t *testing.T, cfg *registry.Config) []byte {
		t.Helper()
		data, err := cfg.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := registry.ParseConfig(data)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		data2, err := back.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Errorf("does not round-trip:\n%s\nvs\n%s", data, data2)
		}
		return data
	}
	for _, sc := range []struct {
		name string
		cfg  *registry.Config
	}{
		{"tenants-noisy", TenantsConfig(true)},
		{"tenants-healthy", TenantsConfig(false)},
		{"brownout", BrownoutConfig(true)},
		{"brownout-unloaded", BrownoutConfig(false)},
	} {
		t.Run(sc.name, func(t *testing.T) { roundTrip(t, sc.cfg) })
	}

	paths, err := filepath.Glob(filepath.Join(configsDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no example configs under %s", configsDir)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			cfg, err := registry.LoadConfig(path)
			if err != nil {
				t.Fatal(err)
			}
			data := roundTrip(t, cfg)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var fromFile, fromConfig any
			if err := json.Unmarshal(file, &fromFile); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &fromConfig); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromFile, fromConfig) {
				t.Errorf("%s does not say what its loaded config holds:\n--- file ---\n%s--- config ---\n%s",
					path, file, data)
			}
		})
	}
}
