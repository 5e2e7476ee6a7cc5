package registry_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// runDigests builds the config, runs it, and digests every stored
// analysis result keyed by "name@step" — a whole run reduced to a
// comparable map.
func runDigests(t *testing.T, cfg *registry.Config) map[string]string {
	t.Helper()
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer b.Close()
	steps := b.Steps()
	rep, err := b.Pipeline.Run(steps)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := make(map[string]string)
	for _, a := range b.Tenants[0].Analyses {
		every := a.Every()
		if every < 1 {
			every = 1
		}
		for s := every; s <= steps; s += every {
			if v := rep.Result(a.Name(), s); v != nil {
				out[fmt.Sprintf("%s@%d", a.Name(), s)] = core.ResultDigest(v)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("run stored no results")
	}
	return out
}

// TestConfigFileRunMatchesInMemoryConfig is the equivalence
// acceptance test for the file format: a config written to disk with
// Marshal and read back with LoadConfig must build a pipeline whose
// run produces the same result digest as the in-memory config, for
// every analysis at every step.
//
// The analysis set includes topology and contingency, whose results
// hold nested pointers: ResultDigest digests their pointees, so two
// runs that compute the same trees and tables digest identically.
func TestConfigFileRunMatchesInMemoryConfig(t *testing.T) {
	buckets := 2
	every := func(name string, p registry.Params) registry.AnalysisConfig {
		p.Every = 1
		return registry.AnalysisConfig{Analysis: name, Params: p}
	}
	inMemory := &registry.Config{
		Name:  "equivalence",
		Steps: 4,
		Fabric: registry.FabricConfig{
			DSServers: 2,
			Buckets:   &buckets,
			Net:       registry.NetConfig{Profile: "gemini"},
		},
		Tenants: []registry.TenantConfig{{
			Sim: registry.SimConfig{NX: 16, NY: 12, NZ: 8, PX: 2, PY: 1, PZ: 1, SubSteps: 1, Seed: 1},
			Analyses: []registry.AnalysisConfig{
				every("stats", registry.Params{Placement: registry.PlaceInSitu}),
				every("stats", registry.Params{Placement: registry.PlaceHybrid}),
				every("viz", registry.Params{Placement: registry.PlaceInSitu, Width: 320, Height: 240}),
				every("viz", registry.Params{Placement: registry.PlaceHybrid, Width: 320, Height: 240, Factor: 4}),
				every("topology", registry.Params{Placement: registry.PlaceHybrid, SimplifyEps: 0.05, FeatureThreshold: 1.0}),
				every("contingency", registry.Params{Placement: registry.PlaceHybrid}),
				every("assess", registry.Params{Placement: registry.PlaceInSitu}),
			},
		}},
	}

	data, err := inMemory.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	path := filepath.Join(t.TempDir(), "equivalence.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := registry.LoadConfig(path)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}

	memRun := runDigests(t, inMemory)
	fileRun := runDigests(t, fromFile)

	if len(memRun) != len(fileRun) {
		t.Fatalf("result counts differ: in-memory %d, file %d", len(memRun), len(fileRun))
	}
	for key, want := range memRun {
		got, ok := fileRun[key]
		if !ok {
			t.Errorf("config-file run missing result %s", key)
			continue
		}
		if got != want {
			t.Errorf("digest mismatch at %s: in-memory %s, file %s", key, want, got)
		}
	}
}

// TestBuildSingleTenantShape pins what Build wires up for one tenant:
// a Pipeline (no Scheduler), analyses in config order, and the hybrid
// route list.
func TestBuildSingleTenantShape(t *testing.T) {
	buckets := 2
	cfg := &registry.Config{
		Fabric: registry.FabricConfig{Buckets: &buckets},
		Tenants: []registry.TenantConfig{{
			Sim: registry.SimConfig{NX: 8, NY: 8, NZ: 8, PX: 1, PY: 1, PZ: 1},
			Analyses: []registry.AnalysisConfig{
				{Analysis: "assess", Params: registry.Params{Sigma: 3}},
				{Analysis: "stats", Params: registry.Params{Placement: registry.PlaceHybrid}},
				{Analysis: "viz", Params: registry.Params{
					Placement: registry.PlaceHybrid, Width: 20, Height: 16, Factor: 2,
				}},
			},
		}},
	}
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer b.Close()

	if b.Pipeline == nil || b.Scheduler != nil {
		t.Fatalf("single-tenant build: Pipeline=%v Scheduler=%v", b.Pipeline, b.Scheduler)
	}
	if len(b.Tenants) != 1 {
		t.Fatalf("len(Tenants) = %d, want 1", len(b.Tenants))
	}
	tn := b.Tenants[0]
	if len(tn.Analyses) != 3 {
		t.Fatalf("len(Analyses) = %d, want 3", len(tn.Analyses))
	}
	// assess is in-situ-only: not a hybrid route. stats and viz hybrid
	// stage payloads across the fabric, in registration order.
	want := []string{tn.Analyses[1].Name(), tn.Analyses[2].Name()}
	if len(tn.Routes) != len(want) || tn.Routes[0] != want[0] || tn.Routes[1] != want[1] {
		t.Errorf("Routes = %v, want %v", tn.Routes, want)
	}
}

// TestBuildMultiTenantShape: several tenants build a Scheduler with
// one pipeline per tenant, and the built topology runs.
func TestBuildMultiTenantShape(t *testing.T) {
	buckets := 2
	tenant := func(name string) registry.TenantConfig {
		return registry.TenantConfig{
			Name: name,
			Sim:  registry.SimConfig{NX: 8, NY: 8, NZ: 8, PX: 1, PY: 1, PZ: 1},
			Analyses: []registry.AnalysisConfig{
				{Analysis: "stats", Params: registry.Params{Placement: registry.PlaceHybrid}},
			},
		}
	}
	cfg := &registry.Config{
		Steps: 2,
		Fabric: registry.FabricConfig{
			Buckets: &buckets,
			Net:     registry.NetConfig{Profile: "gemini", TimeScale: 0.1},
		},
		Tenants: []registry.TenantConfig{tenant("a"), tenant("b")},
	}
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer b.Close()

	if b.Scheduler == nil || b.Pipeline != nil {
		t.Fatalf("multi-tenant build: Pipeline=%v Scheduler=%v", b.Pipeline, b.Scheduler)
	}
	if len(b.Tenants) != 2 || b.Tenants[0].Name != "a" || b.Tenants[1].Name != "b" {
		t.Fatalf("Tenants = %+v, want a then b", b.Tenants)
	}

	reps, err := b.Scheduler.Run(b.Steps())
	if err != nil {
		t.Fatalf("Scheduler.Run: %v", err)
	}
	for _, name := range []string{"a", "b"} {
		rep := reps[name]
		if rep == nil {
			t.Fatalf("tenant %q produced no report", name)
		}
		if rep.Result(b.Tenants[0].Analyses[0].Name(), 2) == nil {
			t.Errorf("tenant %q has no stats result at step 2", name)
		}
	}
}

// TestBuildRejectsInvalidConfig: Build re-validates, so a config
// assembled in Go (never parsed) still cannot construct a bad
// topology.
func TestBuildRejectsInvalidConfig(t *testing.T) {
	cfg := &registry.Config{
		Tenants: []registry.TenantConfig{{
			Sim: registry.SimConfig{NX: 8, NY: 8, NZ: 8, PX: 1, PY: 1, PZ: 1},
			Analyses: []registry.AnalysisConfig{
				{Analysis: "no-such-analysis"},
			},
		}},
	}
	if _, err := registry.Build(cfg); !errors.Is(err, registry.ErrUnknownAnalysis) {
		t.Fatalf("Build = %v, want ErrUnknownAnalysis", err)
	}
}
