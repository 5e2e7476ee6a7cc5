// Command pipebench is the end-to-end benchmark of the hybrid
// in-situ/in-transit pipeline. It runs one named workload through the
// public pipeline API (core.NewPipeline, Register, Run), checks every
// result, and prints the metrics named in BENCHMARK.json at the
// repository root as the last line of its output:
//
//	pipebench --workload fig6-full --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it runs the workload untraced in one child process
// and prints the end-to-end metrics. With --trace 1 it runs two traced
// children, at GOMAXPROCS=1 and 2, and prints the per-layer metrics of
// both widths, the tracing overhead among them. The traced children
// write their spans to .bench_build/.
// Every child runs the workload in rounds, each a fresh build and
// run, as many as fit in its share of --seconds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind: store directories
// while a round runs, and span files after a traced run.
const outDir = ".bench_build"

func main() {
	wl := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	child := flag.Bool("child", false, "run the workload in this process and print its raw figures")
	traced := flag.Bool("traced", false, "with -child: time every layer call")
	flag.Parse()

	w, err := findWorkload(*wl)
	if err != nil {
		fail(err)
	}
	if *child {
		out, err := runChild(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced)
		if err != nil {
			fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fail(err)
		}
		return
	}
	res, err := orchestrate(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fail(err)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pipebench:", err)
	os.Exit(2)
}

// childOut is what one child process reports to the parent.
type childOut struct {
	Procs     int                `json:"procs"`
	Traced    bool               `json:"traced"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`
	Metrics   map[string]float64 `json:"metrics"`
	SelfMS    map[string]float64 `json:"self_ms,omitempty"`
}

// runChild runs the workload in this process, round after round,
// until the time is spent and, untraced, every p90 has its tail. Round
// 1 is a warm-up that also pays for lazy set-up (pools, page faults):
// its output is checked and its digest is the one every later round
// must reproduce, but no figure comes from it. Every later round is
// measured. A traced child alternates traced and untraced rounds after
// the warm-up, so the tracing overhead compares rounds run side by
// side, and traced rounds must reproduce the untraced results. An
// untraced child gates: a percentile without its tail or a growing
// backlog fails the run. A traced child reports the backlog instead,
// as at GOMAXPROCS=1 a workload may fall behind that keeps pace at 2.
func runChild(w *workload, seed int64, budget time.Duration, traced bool) (*childOut, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	gate := !traced
	need := 3 // the warm-up, then one traced and one untraced round
	if gate {
		need = 1 + w.minRounds()
	}
	var p problems
	var all, rounds, plain []*round
	var spent time.Duration
	start := time.Now()
	for len(all) < need || spent+spent/time.Duration(len(all)) <= budget {
		tr := traced && len(all)%2 == 1
		r, err := w.runRound(seed, tr, outDir, &p)
		if err != nil {
			return nil, err
		}
		if len(all) > 0 && r.digest != all[0].digest {
			p.add("%s: round %d (traced=%v) results differ from round 1's", w.name, len(all)+1, tr)
		}
		switch {
		case len(all) == 0: // warm-up
		case tr == traced:
			rounds = append(rounds, r)
		default:
			plain = append(plain, r)
		}
		all = append(all, r)
		spent = time.Since(start)
	}
	out := &childOut{
		Procs: runtime.GOMAXPROCS(0), Traced: traced, Digest: all[0].digest,
		Metrics: endToEnd(w, rounds, gate, &p),
	}
	for _, r := range all {
		out.Attempted += r.attempted + r.view.attempted
		out.Failed += r.failed + r.view.failed
	}
	if traced {
		addLayers(out.Metrics, w, rounds)
		untraced := endToEnd(w, plain, false, &p)["steps_per_s"]
		out.Metrics["trace.untraced_steps_per_s"] = untraced
		out.Metrics["trace.overhead_frac"] = 1 - out.Metrics["steps_per_s"]/untraced
		spans := collectSpans(rounds)
		out.SelfMS = selfTimes(spans)
		if err := writeSpans(fmt.Sprintf("%s/spans-%s-p%d.jsonl", outDir, w.name, out.Procs), spans); err != nil {
			return nil, err
		}
	}
	if w.store {
		addViewerMetrics(out.Metrics, rounds, gate, &p)
	}
	for name := range out.Metrics {
		if !validName(name) {
			p.add("invalid metric name %q", name)
		}
	}
	out.Problems = p
	return out, nil
}

// minRounds is how many measured rounds every p90 needs for its tail.
func (w *workload) minRounds() int {
	need := 10 * minTail // samples a p90 needs
	return max(2, (need+w.steps-1)/w.steps)
}

// result is the benchmark's final line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// extra holds figures printed by name but not part of the result
	// line: the failure share, and viewer latency where viewers ran.
	extra map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// orchestrate runs the children for one benchmark run and merges
// their figures, comparing result digests across processes: traced
// and untraced, GOMAXPROCS=1 and 2 must all agree.
func orchestrate(w *workload, seed int64, seconds float64, traced bool) (*result, error) {
	type job struct {
		procs  int
		traced bool
		share  float64
	}
	jobs := []job{{0, false, 1}}
	if traced {
		jobs = []job{{1, true, 0.5}, {2, true, 0.5}}
	}
	var outs []*childOut
	for _, j := range jobs {
		out, err := spawn(w, seed, seconds*j.share, j.procs, j.traced)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}, extra: map[string]float64{}}
	for _, o := range outs {
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		for _, pr := range o.Problems {
			fmt.Println("problem:", pr)
			res.Correct = false
		}
		if o.Digest != outs[0].Digest {
			fmt.Printf("problem: results at GOMAXPROCS=%d traced=%v differ from GOMAXPROCS=%d traced=%v\n",
				o.Procs, o.Traced, outs[0].Procs, outs[0].Traced)
			res.Correct = false
		}
	}
	put := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("problem: %s is %v\n", name, v)
			res.Correct, v = false, 0
		}
		res.Metrics[name] = metricValue{v, unitOf(name)}
	}
	res.extra["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	if !traced {
		for _, m := range endToEndNames {
			v, ok := outs[0].Metrics[m]
			if !ok {
				return nil, fmt.Errorf("child reported no %s", m)
			}
			put(m, v)
		}
		for _, m := range []string{"viewer_p50_ms", "viewer_p99_ms"} {
			if v, ok := outs[0].Metrics[m]; ok {
				res.extra[m] = v
			}
		}
		return res, nil
	}
	for _, o := range outs {
		suffix := fmt.Sprintf(".p%d", o.Procs)
		for _, m := range layerNames {
			v, ok := o.Metrics[m]
			if !ok {
				return nil, fmt.Errorf("traced child reported no %s", m)
			}
			put(m+suffix, v)
		}
		for name, v := range o.SelfMS {
			fmt.Printf("self time p%d %-28s %10.3f ms\n", o.Procs, name, v)
		}
	}
	return res, nil
}

// spawn runs one child process of this binary and decodes its report.
// procs 0 leaves GOMAXPROCS at the runtime's default.
func spawn(w *workload, seed int64, seconds float64, procs int, traced bool) (*childOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), fmt.Sprintf("-traced=%v", traced)}
	cmd := exec.Command(exe, args...)
	cmd.Env = os.Environ()
	if procs > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("GOMAXPROCS=%d", procs))
	}
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s (GOMAXPROCS=%d traced=%v): %w", w.name, procs, traced, err)
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("child %s report: %w", w.name, err)
	}
	return &out, nil
}

// printResult prints every metric by name and unit, then the result
// line, which must be the last line of output.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(os.Stdout)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(bw, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	names = names[:0]
	for name := range res.extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(bw, "%-36s %14.6g %s\n", name, res.extra[name], unitOf(name))
	}
	fmt.Fprintf(bw, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, _ := json.Marshal(res) // float64 maps always marshal
	fmt.Fprintln(bw, strings.TrimSpace(string(line)))
	bw.Flush()
}
