package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEndNames are the metrics a user of the pipeline sees, printed
// with --trace 0. Viewer latency exists only where a viewer load runs,
// so it is a per-layer metric of the serve tier; failures are the
// result line's own attempted and failed counts.
var endToEndNames = []string{
	"setup_s", "steps_per_s", "step_wall_p50_ms", "step_wall_p90_ms",
	"result_latency_p50_ms", "result_latency_p90_ms", "moved_kb_per_step",
	"allocs_per_step", "alloc_mb_per_step", "peak_rss_mb",
}

// layerNames are the per-layer metrics every traced child reports,
// each printed once per GOMAXPROCS width. A layer a workload does not
// exercise reads 0.
var layerNames = []string{
	"steps_per_s", "sim.step_ms",
	"core.insitu_ms.stats_insitu", "core.insitu_ms.stats_hybrid",
	"core.insitu_ms.viz_insitu", "core.insitu_ms.viz_hybrid", "core.step_residual_ms",
	"stats.derive_ms", "mergetree.subtree_ms", "mergetree.glue_ms",
	"render.transit_ms", "render.png_ms",
	"codec.ratio", "codec.raw_kb_per_step", "codec.encoded_kb_per_step",
	"dart.pull_ms", "dart.transfers_per_step", "dart.retries", "netsim.modeled_move_ms",
	"dataspaces.queue_wait_p50_ms", "dataspaces.queue_wait_p90_ms",
	"staging.bucket_busy_frac", "staging.task_skew", "staging.requeues",
	"imagestore.put_p50_ms", "imagestore.put_p90_ms", "imagestore.dedup_frac",
	"imagestore.commit_lag_p50_ms", "imagestore.commit_lag_p90_ms",
	"serve.not_modified_frac", "serve.kb_per_req", "loadgen.lag_p99_ms",
	"viewer_p50_ms", "viewer_p99_ms", "gc.cpu_frac", "staging.backlog_ratio",
	"trace.untraced_steps_per_s", "trace.overhead_frac",
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	name = strings.TrimSuffix(strings.TrimSuffix(name, ".p1"), ".p2")
	switch {
	case strings.HasSuffix(name, "steps_per_s"):
		return "1/s"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_mb_per_step"):
		return "MB/step"
	case strings.HasSuffix(name, "_kb_per_step"):
		return "kB/step"
	case strings.HasSuffix(name, "kb_per_req"):
		return "kB/req"
	case strings.HasSuffix(name, "_per_step"):
		return "count/step"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "skew"):
		return "ratio"
	}
	return "count"
}

// endToEnd computes the end-to-end metrics over the measured rounds:
// timings pooled over every round, set-up over every build. With gate
// set, a percentile without its tail or a growing backlog fails the
// run; otherwise the backlog is reported as staging.backlog_ratio.
func endToEnd(w *workload, rounds []*round, gate bool, p *problems) map[string]float64 {
	var setup, rate, walls, lat, first, last []float64
	var steps, bytes, mallocs, allocBytes float64
	for _, r := range rounds {
		for _, d := range r.setup {
			setup = append(setup, d.Seconds())
		}
		steps += float64(w.steps)
		bytes += float64(r.rep.Net.BytesMoved)
		mallocs += float64(r.mallocs)
		allocBytes += float64(r.allocBytes)
	}
	q := w.steps / 4
	for _, r := range rounds {
		rate = append(rate, float64(w.steps)/r.run.Seconds())
		for _, d := range r.rep.Metrics.StepWalls() {
			walls = append(walls, ms(d))
		}
		for _, a := range r.hybrid {
			for step := 1; step <= w.steps; step++ {
				v := ms(time.Duration(r.l.done[a][step].Load() - r.l.ready[a][step].Load()))
				lat = append(lat, v)
				switch {
				case step <= q:
					first = append(first, v)
				case step > w.steps-q:
					last = append(last, v)
				}
			}
		}
	}
	steady, f, l := backlog(first, last)
	if !steady && gate {
		p.add("%s: not steady: result latency median %.2f ms over the first quarter of steps, %.2f ms over the last",
			w.name, f, l)
	}
	m := map[string]float64{
		"setup_s":           median(setup),
		"steps_per_s":       median(rate),
		"moved_kb_per_step": bytes / steps / 1e3,
		"allocs_per_step":   mallocs / steps,
		"alloc_mb_per_step": allocBytes / steps / 1e6,
		"peak_rss_mb":       peakRSS(),
	}
	if !gate {
		m["staging.backlog_ratio"] = l / f
	}
	m["step_wall_p50_ms"], m["step_wall_p90_ms"] = tailed(gate, p, "step wall", walls, 90)
	m["result_latency_p50_ms"], m["result_latency_p90_ms"] = tailed(gate, p, "result latency", lat, 90)
	return m
}

// addViewerMetrics adds the viewer load's figures over the measured
// rounds.
func addViewerMetrics(m map[string]float64, rounds []*round, gate bool, p *problems) {
	var lat, lag []float64
	for _, r := range rounds {
		lat = append(lat, r.view.latency...)
		lag = append(lag, r.view.lag...)
	}
	m["viewer_p50_ms"], m["viewer_p99_ms"] = tailed(gate, p, "viewer latency", lat, 99)
	m["loadgen.lag_p99_ms"], _ = percentile(lag, 99)
}

// addLayers adds the per-layer metrics of traced rounds to m, which
// already holds what endToEnd computed (steps_per_s, as in the
// untraced rounds it is compared with, and staging.backlog_ratio). A
// layer the workload does not exercise reads 0.
func addLayers(m map[string]float64, w *workload, rounds []*round) {
	for _, name := range layerNames {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}
	inSitu := map[string][]float64{}
	transit := map[string][]float64{}
	var queue, png, put, commit []float64
	var steps, simNS, wallNS, inSituSum, busy, capacity float64
	var raw, enc, transfers, pulls, pullNS, modeledNS, retries, requeues float64
	var puts, dedups, reqs, notMod, sent, gcCPU, cpu float64
	var perBucket []int64
	for _, r := range rounds {
		rep := r.rep
		steps += float64(w.steps)
		submit := submitted(r.l, w.steps)
		total, _, _ := rep.Metrics.SimTime()
		simNS += float64(total)
		for _, d := range rep.Metrics.StepWalls() {
			wallNS += float64(d)
		}
		for a, e := range r.entries {
			bd := rep.Metrics.Total(e.a.Name())
			var meanPull float64
			if bd.Steps > 0 {
				meanPull = float64(bd.MoveWall) / float64(bd.Steps)
			}
			pullNS += float64(bd.MoveWall)
			modeledNS += float64(bd.MoveModeled)
			busy += float64(bd.MoveWall)
			for step := 1; step <= w.steps; step++ {
				d := float64(critical(r.l, a, step))
				inSitu[e.key] = append(inSitu[e.key], d/1e6)
				inSituSum += d
				if !isHybrid(r.hybrid, a) {
					continue
				}
				pulls++
				t := float64(r.l.transit[a][step].Load())
				busy += t
				transit[e.key] = append(transit[e.key], t/1e6)
				wait := float64(r.l.tStart[a][step].Load()-submit[step]) - meanPull
				queue = append(queue, wait/1e6)
				if c := r.l.committed[a][step].Load(); c > 0 {
					commit = append(commit, float64(c-r.l.done[a][step].Load())/1e6)
				}
			}
		}
		capacity += float64(w.buckets) * float64(r.run)
		raw += float64(rep.Codec.RawBytes)
		enc += float64(rep.Codec.EncodedBytes)
		transfers += float64(rep.Net.Transfers)
		retries += float64(rep.Resilience.Retries)
		requeues += float64(rep.Resilience.Requeues)
		png = append(png, r.l.png...)
		put = append(put, r.l.put...)
		puts += float64(r.store.Puts)
		dedups += float64(r.store.Dedups)
		reqs += float64(r.served.Requests)
		notMod += float64(r.served.NotModified)
		sent += float64(r.served.BytesSent)
		gcCPU += r.gcCPU
		cpu += r.cpu
		for i, n := range r.completed {
			if i >= len(perBucket) {
				perBucket = append(perBucket, 0)
			}
			perBucket[i] += n
		}
	}
	m["sim.step_ms"] = simNS / steps / 1e6
	m["core.step_residual_ms"] = (wallNS - simNS - inSituSum) / steps / 1e6
	for _, key := range []string{"stats_insitu", "stats_hybrid", "viz_insitu", "viz_hybrid"} {
		m["core.insitu_ms."+key] = median(inSitu[key])
	}
	m["stats.derive_ms"] = median(transit["stats_hybrid"])
	m["mergetree.subtree_ms"] = median(inSitu["topology"])
	m["mergetree.glue_ms"] = median(transit["topology"])
	m["render.transit_ms"] = median(transit["viz_hybrid"])
	m["render.png_ms"] = median(png)
	m["codec.ratio"] = raw / enc
	m["codec.raw_kb_per_step"] = raw / steps / 1e3
	m["codec.encoded_kb_per_step"] = enc / steps / 1e3
	m["dart.pull_ms"] = pullNS / pulls / 1e6
	m["dart.transfers_per_step"] = transfers / steps
	m["dart.retries"] = retries
	m["netsim.modeled_move_ms"] = modeledNS / steps / 1e6
	m["dataspaces.queue_wait_p50_ms"], m["dataspaces.queue_wait_p90_ms"] = p50p90(queue)
	m["staging.bucket_busy_frac"] = busy / capacity
	m["staging.requeues"] = requeues
	if len(perBucket) > 0 {
		lo, hi := perBucket[0], perBucket[0]
		for _, n := range perBucket {
			lo, hi = min(lo, n), max(hi, n)
		}
		m["staging.task_skew"] = float64(hi) / float64(max(lo, 1))
	}
	if len(put) > 0 {
		m["imagestore.put_p50_ms"], m["imagestore.put_p90_ms"] = p50p90(put)
		m["imagestore.commit_lag_p50_ms"], m["imagestore.commit_lag_p90_ms"] = p50p90(commit)
	}
	if puts > 0 {
		m["imagestore.dedup_frac"] = dedups / puts
	}
	if reqs > 0 {
		m["serve.not_modified_frac"] = notMod / reqs
		m["serve.kb_per_req"] = sent / reqs / 1e3
	}
	if cpu > 0 {
		m["gc.cpu_frac"] = gcCPU / cpu
	}
}

// critical returns how far analysis a's in-situ calls pushed out the
// step's slowest rank: from the previous analysis' last return (for the
// first analysis, from its own last start, when the last rank left the
// simulation step) to a's last return. With many ranks sharing a few
// CPUs a rank's own call time includes the time other ranks spend in
// other phases, so per-rank maxima overlap and their sum exceeds the
// step; these increments add up to the step's in-situ share.
func critical(l *ledger, a, step int) int64 {
	from := l.lastStart[0][step].Load()
	if a > 0 {
		from = l.ready[a-1][step].Load()
	}
	return max(0, l.ready[a][step].Load()-from)
}

// submitted returns, per step, when rank 0 could first create the
// step's in-transit tasks: the last return of any analysis' in-situ
// call on any rank. The pipeline creates tasks only after every
// analysis' in-situ call and a barrier, so the time from one analysis'
// own data-ready to this instant is in-situ work of the analyses after
// it, not DataSpaces queueing. Traced rounds stamp every analysis.
func submitted(l *ledger, steps int) []int64 {
	out := make([]int64, steps+1)
	for a := range l.ready {
		for step := 1; step <= steps; step++ {
			out[step] = max(out[step], l.ready[a][step].Load())
		}
	}
	return out
}

// gcCPU returns the runtime's estimates of GC CPU time and of all CPU
// time the process used, in seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// peakRSS returns the process's peak resident set in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// tracedSpan is a span tagged with the round it belongs to.
type tracedSpan struct {
	Round int `json:"round"`
	span
}

// collectSpans adds each (analysis, step)'s root span — from its first
// in-situ call to its result's end, or to its last in-situ call for an
// in-situ analysis — to the spans the wrappers recorded.
func collectSpans(rounds []*round) []tracedSpan {
	var out []tracedSpan
	for i, r := range rounds {
		l := r.l
		first, last := map[int]int64{}, map[int]int64{}
		for _, s := range l.spans {
			if v, ok := first[s.Parent]; !ok || s.Start < v {
				first[s.Parent] = s.Start
			}
			last[s.Parent] = max(last[s.Parent], s.End)
		}
		for a := range l.keys {
			for step := 1; step < len(l.done[a]); step++ {
				seq := l.rootSeq(a, step)
				end := last[seq]
				if isHybrid(r.hybrid, a) {
					end = l.done[a][step].Load()
				}
				out = append(out, tracedSpan{i, span{
					Seq: seq, ID: fmt.Sprintf("%s@%d", l.keys[a], step), Name: "result." + l.keys[a],
					Parent: -1, Start: first[seq], End: end,
				}})
			}
		}
		for _, s := range l.spans {
			out = append(out, tracedSpan{i, s})
		}
	}
	return out
}

// selfTimes returns the median self time per span kind, in ms. A
// span's self time is its duration minus the part of it its children
// cover; per-rank in-situ spans share one kind.
func selfTimes(spans []tracedSpan) map[string]float64 {
	type key struct{ round, seq int }
	children := map[key][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Round, s.Parent}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	samples := map[string][]float64{}
	for _, s := range spans {
		self := s.End - s.Start
		if s.Parent < 0 {
			self -= covered(children[key{s.Round, s.Seq}], s.Start, s.End)
		}
		kind := s.Name
		if i := strings.LastIndex(kind, ".rank"); i >= 0 {
			kind = kind[:i]
		}
		samples[kind] = append(samples[kind], float64(self)/1e6)
	}
	out := make(map[string]float64, len(samples))
	for kind, v := range samples {
		out[kind] = median(v)
	}
	return out
}

// covered returns how much of [lo, hi] the union of intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

func writeSpans(path string, spans []tracedSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
