package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"insitu/internal/core"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: percentile must sort
	}
	return s
}

func TestPercentileNearestRankAndTail(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 50, 50, true},
		{100, 90, 90, true},   // 10 samples beyond
		{99, 90, 90, false},   // rank 90 of 99 leaves 9 beyond
		{1000, 99, 990, true}, // 10 beyond
		{999, 99, 990, false},
		{1, 50, 1, true},
		{1, 90, 1, false},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	var p problems
	tailed(false, &p, "x", seq(50), 90)
	if len(p) != 0 {
		t.Fatalf("ungated tailed added %v", p)
	}
	tailed(true, &p, "x", seq(50), 90)
	if len(p) != 1 {
		t.Fatalf("gated tailed with 5 samples beyond p90 added %v", p)
	}
}

func TestValidName(t *testing.T) {
	for _, name := range []string{"setup_s", "core.insitu_ms.viz_hybrid", "9lives", "a-b", strings.Repeat("a", 64)} {
		if !validName(name) {
			t.Errorf("validName(%q) = false", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a%", "é", strings.Repeat("a", 65)} {
		if validName(name) {
			t.Errorf("validName(%q) = true", name)
		}
	}
}

func TestBacklog(t *testing.T) {
	flat := []float64{10, 11, 12, 10}
	if ok, _, _ := backlog(flat, flat); !ok {
		t.Error("flat latency read as a backlog")
	}
	if ok, _, _ := backlog(flat, []float64{30, 31, 33}); ok {
		t.Error("tripled latency read as steady")
	}
	// Doubling below the absolute floor is jitter, not growth.
	if ok, _, _ := backlog([]float64{0.2}, []float64{1.5}); !ok {
		t.Error("sub-floor growth read as a backlog")
	}
}

// interfaces are the contracts the pipeline discovers by type
// assertion; a wrapper that hid one would change which branch runs.
var interfaces = map[string]reflect.Type{
	"InSituAnalysis":          reflect.TypeOf((*core.InSituAnalysis)(nil)).Elem(),
	"HybridAnalysis":          reflect.TypeOf((*core.HybridAnalysis)(nil)).Elem(),
	"StreamingHybridAnalysis": reflect.TypeOf((*core.StreamingHybridAnalysis)(nil)).Elem(),
	"ShapedStage":             reflect.TypeOf((*core.ShapedStage)(nil)).Elem(),
	"QuantizableStage":        reflect.TypeOf((*core.QuantizableStage)(nil)).Elem(),
	"InSituFallback":          reflect.TypeOf((*core.InSituFallback)(nil)).Elem(),
	"FrameAnalysis":           reflect.TypeOf((*core.FrameAnalysis)(nil)).Elem(),
}

func implemented(v any) []string {
	var out []string
	for name, it := range interfaces {
		if reflect.TypeOf(v).Implements(it) {
			out = append(out, name)
		}
	}
	return out
}

func TestWrapperKeepsInterfaces(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, e := range w.analyses() {
			orig := fmt.Sprintf("%T", e.a)
			if seen[orig] {
				continue
			}
			seen[orig] = true
			wrapped, err := wrap(e.a, &tap{})
			if err != nil {
				t.Fatal(err)
			}
			got, want := implemented(wrapped), implemented(e.a)
			if !sameSet(got, want) {
				t.Errorf("%s: wrapper implements %v, original %v", orig, got, want)
			}
			if wrapped.Name() != e.a.Name() {
				t.Errorf("%s: wrapper renamed %q to %q", orig, e.a.Name(), wrapped.Name())
			}
		}
	}
	if len(seen) != 5 {
		t.Errorf("workloads use %d analysis types, want the 5 wrap covers", len(seen))
	}
}

func sameSet(a, b []string) bool {
	m := map[string]int{}
	for _, s := range a {
		m[s]++
	}
	for _, s := range b {
		m[s]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestCoveredAndSelfTimes(t *testing.T) {
	if got := covered([][2]int64{{5, 10}, {0, 3}, {8, 20}}, 2, 15); got != 1+10 {
		t.Errorf("covered = %d, want 11", got)
	}
	spans := []tracedSpan{
		{0, span{Seq: 0, Name: "result.x", Parent: -1, Start: 0, End: 100}},
		{0, span{Seq: 1, Name: "insitu.x.rank0", Parent: 0, Start: 0, End: 30}},
		{0, span{Seq: 2, Name: "insitu.x.rank1", Parent: 0, Start: 10, End: 40}},
		{0, span{Seq: 3, Name: "transit.x", Parent: 0, Start: 70, End: 90}},
	}
	self := selfTimes(spans)
	if got := self["result.x"]; got != 40/1e6 {
		t.Errorf("root self time = %g ms, want %g", got, 40/1e6)
	}
	if _, ok := self["insitu.x"]; !ok {
		t.Errorf("per-rank spans not folded into one kind: %v", self)
	}
}

// TestQueueWaitStartsAtSubmission checks that queue wait is measured
// from the step's task submission, the last in-situ return of any
// analysis, and not from each analysis' own data-ready instant.
func TestQueueWaitStartsAtSubmission(t *testing.T) {
	l := newLedger([]string{"a", "b"}, 2, true)
	l.ready[0][1].Store(10)
	l.ready[1][1].Store(25)
	l.ready[0][2].Store(40)
	l.ready[1][2].Store(35)
	if got := submitted(l, 2); !reflect.DeepEqual(got, []int64{0, 25, 40}) {
		t.Errorf("submitted = %v, want [0 25 40]", got)
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, harness has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		var gotNames []string
		for _, m := range got {
			gotNames = append(gotNames, m.Name)
			if !validName(m.Name) {
				t.Errorf("%s metric %q: invalid name", kind, m.Name)
			}
			if u := unitOf(m.Name); u != m.Unit {
				t.Errorf("%s metric %q: unit %q, harness prints %q", kind, m.Name, m.Unit, u)
			}
		}
		if !reflect.DeepEqual(gotNames, want) {
			t.Errorf("%s metrics %v, harness prints %v", kind, gotNames, want)
		}
	}
	check("end_to_end", b.EndToEnd, endToEndNames)
	var layer []string
	for _, p := range []string{".p1", ".p2"} {
		for _, n := range layerNames {
			layer = append(layer, n+p)
		}
	}
	check("per_layer", b.PerLayer, layer)
}

// TestShortRoundsPassTheOutputCheck runs every workload briefly, traced
// and untraced, and requires a clean output check and identical result
// digests: the wrappers must not change a single result.
func TestShortRoundsPassTheOutputCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		short := *w
		short.steps = 3
		var p problems
		plain, err := short.runRound(7, false, dir, &p)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := short.runRound(7, true, dir, &p)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) > 0 {
			t.Errorf("%s: %v", w.name, p)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced results differ from untraced", w.name)
		}
		if plain.attempted != 3*len(plain.entries) || plain.failed != 0 {
			t.Errorf("%s: attempted %d failed %d", w.name, plain.attempted, plain.failed)
		}
		if len(traced.l.spans) == 0 || len(plain.l.spans) != 0 {
			t.Errorf("%s: %d traced spans, %d untraced", w.name, len(traced.l.spans), len(plain.l.spans))
		}
	}
}
