package core_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"insitu/internal/codec"
	"insitu/internal/core"
	"insitu/internal/grid"
	"insitu/internal/netsim"
	"insitu/internal/sim"
)

// The goldens under testdata/ pin what a run computes and what it
// exports, independent of how the staging fabric underneath is built:
// per-result digest maps of fixed-seed standalone runs, and the
// /metrics schema (family names and label keys) of a standalone
// pipeline and of a scheduler. Multi-tenant digests are not pinned:
// the tenants' wall-clock admission ladders degrade a varying handful
// of steps from run to run.

func goldenSim() sim.Config {
	cfg := sim.DefaultConfig(grid.NewBox(20, 12, 8), 2, 1, 1)
	cfg.KernelRate = 0.6
	return cfg
}

// goldenAnalyses is the paper's five Fig. 6 analyses plus contingency.
func goldenAnalyses() []core.Analysis {
	return []core.Analysis{
		&core.StatsInSitu{},
		&core.StatsHybrid{},
		core.NewVizInSitu(16, 12),
		core.NewVizHybrid(16, 12, 2),
		core.NewTopologyHybrid(),
		&core.ContingencyHybrid{},
	}
}

// digestLines renders a report's results as sorted "name@step digest"
// lines.
func digestLines(rep *core.Report) string {
	var lines []string
	for name, steps := range rep.Results {
		for step, v := range steps {
			lines = append(lines, fmt.Sprintf("%s@%d %s", name, step, core.ResultDigest(v)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// standaloneDigests runs the golden analysis set for four steps, with
// identity codecs or with delta on every route and recovery on.
func standaloneDigests(t *testing.T, deltaRecovery bool) string {
	t.Helper()
	cfg := core.DefaultConfig(goldenSim())
	if deltaRecovery {
		cfg.Codecs = map[string]codec.Spec{"*": {ID: codec.Delta}}
		cfg.Recovery = &core.RecoveryConfig{Dir: t.TempDir(), Every: 2}
	}
	p, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range goldenAnalyses() {
		p.Register(a)
	}
	rep, err := p.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	return digestLines(rep)
}

// metricSchema renders a Prometheus text dump as its sorted set of
// "family{label,keys}" lines: values and label values are dropped.
func metricSchema(t *testing.T, text []byte) string {
	t.Helper()
	set := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		var keys []string
		for _, kv := range strings.Split(labels, ",") {
			if k, _, ok := strings.Cut(kv, "="); ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		set[name+"{"+strings.Join(keys, ",")+"}"] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, "\n") + "\n"
}

func standaloneSchema(t *testing.T) string {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig(goldenSim()))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&core.StatsInSitu{})
	p.Register(&core.StatsHybrid{})
	pl := p.EnableObs()
	if _, err := p.Run(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pl.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return metricSchema(t, buf.Bytes())
}

func schedulerSchema(t *testing.T) string {
	t.Helper()
	s, err := core.NewScheduler(core.SchedulerConfig{DSServers: 2, Buckets: 2, Net: netsim.Gemini()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		p, err := s.AddTenant(name, core.TenantConfig{Sim: goldenSim()})
		if err != nil {
			t.Fatal(err)
		}
		p.Register(&core.StatsInSitu{})
		p.Register(&core.StatsHybrid{})
	}
	pl := s.EnableObs()
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pl.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return metricSchema(t, buf.Bytes())
}

// checkGolden compares got against testdata/<name>.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestDigestStableAcrossRuns: two identical fixed-seed runs whose
// results hold nested pointers (merge trees, contingency tables)
// digest identically, result by result.
func TestDigestStableAcrossRuns(t *testing.T) {
	a := standaloneDigests(t, false)
	b := standaloneDigests(t, false)
	if a != b {
		t.Fatalf("identical runs digest differently:\n--- first\n%s--- second\n%s", a, b)
	}
	if !strings.Contains(a, "topology") || !strings.Contains(a, "contingency") {
		t.Fatalf("digest map lacks topology or contingency:\n%s", a)
	}
}

func TestGoldenStandaloneDigests(t *testing.T) {
	checkGolden(t, "digests_standalone.golden", standaloneDigests(t, false))
}

func TestGoldenStandaloneDeltaRecoveryDigests(t *testing.T) {
	checkGolden(t, "digests_standalone_delta_recovery.golden", standaloneDigests(t, true))
}

func TestGoldenMetricSchema(t *testing.T) {
	checkGolden(t, "metrics_standalone.golden", standaloneSchema(t))
	checkGolden(t, "metrics_scheduler.golden", schedulerSchema(t))
}
