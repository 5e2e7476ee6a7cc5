// Command pipecheck is the configuration gate behind `make configs`:
// it validates declarative pipeline configs without running them, and
// optionally drives one config end-to-end as a smoke test.
//
//	pipecheck -dir examples/configs          # validate every *.json
//	pipecheck -run examples/configs/quickstart.json
//	pipecheck -list                          # print the analysis catalog
//
// Validation uses registry.LoadConfig — strict decoding plus the full
// typed-error Validate pass — so a config that pipecheck accepts is a
// config s3dpipe -config will build. The -run smoke additionally
// checks the run leaks nothing (every pinned staging region drains).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"insitu/internal/core"
	"insitu/internal/registry"

	// Imported for its analysis registrations (the "poison" drill
	// route), so scenario configs naming it validate.
	_ "insitu/internal/workload"
)

func main() {
	var (
		dir  = flag.String("dir", "", "validate every *.json config under this directory")
		run  = flag.String("run", "", "build and run this config end-to-end as a smoke test")
		list = flag.Bool("list", false, "print the registered analysis catalog and exit")
	)
	flag.Parse()

	switch {
	case *list:
		listAnalyses()
	case *dir != "":
		validateDir(*dir)
	case *run != "":
		runConfig(*run)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// listAnalyses prints each registered analysis with its supported
// placements and one-line description.
func listAnalyses() {
	for _, name := range registry.Names() {
		info, _ := registry.Lookup(name)
		fmt.Printf("%-14s %v\n               %s\n", name, info.Placements, info.Doc)
	}
}

// validateDir loads every *.json under dir through the strict loader
// and reports per-file verdicts; any failure exits non-zero.
func validateDir(dir string) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		fail(err)
	}
	if len(paths) == 0 {
		fail(fmt.Errorf("no *.json configs under %s", dir))
	}
	sort.Strings(paths)
	bad := 0
	for _, path := range paths {
		cfg, err := registry.LoadConfig(path)
		if err != nil {
			fmt.Printf("FAIL %s\n     %v\n", path, err)
			bad++
			continue
		}
		fmt.Printf("ok   %s (%s: %d tenant(s), %d analyses)\n",
			path, cfg.Name, len(cfg.Tenants), countAnalyses(cfg))
	}
	if bad > 0 {
		fail(fmt.Errorf("%d config(s) failed validation", bad))
	}
}

// runConfig builds the config and runs it end-to-end for its declared
// steps, verifying the run completes and drains every pinned staging
// region.
func runConfig(path string) {
	cfg, err := registry.LoadConfig(path)
	if err != nil {
		fail(err)
	}
	b, err := registry.Build(cfg)
	if err != nil {
		fail(err)
	}
	defer b.Close()
	n := b.Steps()
	fmt.Printf("running %s (%s) for %d steps\n", path, cfg.Name, n)

	if b.Scheduler != nil {
		reps, err := b.Scheduler.Run(n)
		if err != nil {
			fail(err)
		}
		for _, t := range b.Tenants {
			rep := reps[t.Name]
			if rep == nil {
				fail(fmt.Errorf("tenant %q produced no report", t.Name))
			}
			fmt.Printf("  tenant %-12s %d analyses, worst step wall %v\n",
				t.Name, len(t.Analyses), rep.Metrics.MaxStepWall().Round(1e3))
		}
	} else {
		rep, err := b.Pipeline.Run(n)
		if err != nil {
			fail(err)
		}
		checkResults(b, rep, n)
		if pinned := b.Pipeline.PinnedRegions(); pinned != 0 {
			fail(fmt.Errorf("%d staging regions still pinned after the run", pinned))
		}
		fmt.Printf("  %d analyses, worst step wall %v, 0 pinned regions\n",
			len(b.Tenants[0].Analyses), rep.Metrics.MaxStepWall().Round(1e3))
	}
	fmt.Println("smoke ok")
}

// checkResults verifies every registered analysis produced a final
// result (the smoke's "did anything actually run" assertion).
func checkResults(b *registry.Built, rep *core.Report, steps int) {
	for _, a := range b.Tenants[0].Analyses {
		every := a.Every()
		if every < 1 {
			every = 1
		}
		last := steps - steps%every
		if last == 0 {
			continue
		}
		if rep.Result(a.Name(), last) == nil {
			fail(fmt.Errorf("analysis %q produced no result at step %d", a.Name(), last))
		}
	}
}

// countAnalyses totals the analyses across a config's tenants.
func countAnalyses(cfg *registry.Config) int {
	n := 0
	for _, t := range cfg.Tenants {
		n += len(t.Analyses)
	}
	return n
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pipecheck:", err)
	os.Exit(1)
}
