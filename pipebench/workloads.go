package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"insitu/internal/codec"
	"insitu/internal/core"
	"insitu/internal/grid"
	"insitu/internal/imagestore"
	"insitu/internal/netsim"
	"insitu/internal/render"
	"insitu/internal/serve"
	"insitu/internal/sim"
)

// entry is one analysis of a workload under its short metric key.
type entry struct {
	key string
	a   core.Analysis
}

// workload is one fixed pipeline configuration. Every round builds it
// afresh and runs it for steps steps as fast as the simulation can
// step (a closed loop, like a batch job); only the viewer load of a
// store-backed workload is an open loop.
type workload struct {
	name       string
	steps      int
	global     grid.Box
	px, py, pz int
	dsServers  int
	buckets    int
	codecs     map[string]codec.Spec
	analyses   func() []entry
	// store files frames into an image store served over loopback
	// HTTP to an open-loop viewer load of viewerRate requests per
	// second.
	store bool
}

var workloads = []*workload{
	{
		// The paper's headline step: every analysis, little transfer.
		// The merge tree, the in-situ kernels and GC dominate it.
		name: "fig6-full", steps: 40,
		global: grid.NewBox(48, 32, 16), px: 4, py: 2, pz: 2,
		dsServers: 2, buckets: 2,
		analyses: func() []entry {
			return []entry{
				{"stats_insitu", &core.StatsInSitu{}},
				{"stats_hybrid", &core.StatsHybrid{}},
				{"viz_insitu", core.NewVizInSitu(64, 48)},
				{"viz_hybrid", core.NewVizHybrid(64, 48, 8)},
				{"topology", core.NewTopologyHybrid()},
			}
		},
	},
	{
		// Many small ranks (8^3 blocks, the x-split shape of the
		// paper's 9440-core run): the simulation and per-rank fixed
		// costs dominate, the delta codec is on every route, and the
		// merge tree does no work.
		name: "strong-scale", steps: 40,
		global: grid.NewBox(64, 32, 16), px: 8, py: 4, pz: 2,
		dsServers: 4, buckets: 2,
		codecs: map[string]codec.Spec{"*": {ID: codec.Delta}},
		analyses: func() []entry {
			return []entry{
				{"stats_hybrid", &core.StatsHybrid{}},
				{"viz_hybrid", core.NewVizHybrid(64, 48, 2)},
			}
		},
	},
	{
		// Rendering, PNG encoding, fsynced store writes and HTTP reads
		// of the same store compete for the host's CPUs. Cameras and
		// resolution are sized so the staging tier keeps pace with the
		// simulation: a backlog would make latency grow with run length.
		name: "live-cinema", steps: 60,
		global: grid.NewBox(32, 24, 8), px: 2, py: 2, pz: 1,
		dsServers: 2, buckets: 2,
		store: true,
		analyses: func() []entry {
			v := core.NewVizHybrid(96, 72, 2)
			v.Cameras = 2
			return []entry{{"viz_hybrid", v}}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// built is one round's constructed pipeline and serving tier.
type built struct {
	p       *core.Pipeline
	l       *ledger
	entries []entry
	hybrid  []int // indices of hybrid analyses in entries

	dir   string
	store *imagestore.Store
	srv   *serve.Server
	http  *http.Server
	base  string
}

// build constructs the round's pipeline (and store and server) — the
// work setup_s times.
func (w *workload) build(seed int64, traced bool, tmp string) (*built, error) {
	b := &built{entries: w.analyses()}
	keys := make([]string, len(b.entries))
	for i, e := range b.entries {
		keys[i] = e.key
		if _, ok := e.a.(core.HybridAnalysis); ok {
			b.hybrid = append(b.hybrid, i)
		}
	}
	b.l = newLedger(keys, w.steps, traced)

	simCfg := sim.DefaultConfig(w.global, w.px, w.py, w.pz)
	simCfg.Seed = seed
	cfg := core.Config{
		Sim: simCfg, DSServers: w.dsServers, Buckets: w.buckets,
		Net: netsim.Gemini(), Codecs: w.codecs,
	}
	if w.store {
		if err := b.openStore(tmp); err != nil {
			b.close()
			return nil, err
		}
		cfg.Store = b.store
		if traced {
			sink := &frameSink{st: b.store, l: b.l, byVar: map[string]int{}}
			for i, e := range b.entries {
				if fa, ok := e.a.(core.FrameAnalysis); ok {
					sink.byVar[fa.FrameVar()] = i
				}
			}
			cfg.Store = sink
		}
	}
	p, err := core.NewPipeline(cfg)
	if err != nil {
		b.close()
		return nil, err
	}
	b.p = p
	for i, e := range b.entries {
		wrapped, err := wrap(e.a, &tap{l: b.l, a: i})
		if err != nil {
			b.close()
			return nil, err
		}
		p.Register(wrapped)
	}
	return b, nil
}

func (b *built) openStore(tmp string) error {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return err
	}
	b.dir = dir
	if b.store, err = imagestore.Open(dir); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = serve.New(b.store)
	b.http = &http.Server{Handler: b.srv}
	b.base = "http://" + ln.Addr().String()
	go b.http.Serve(ln)
	return nil
}

// close stops the server, closes the store and removes its directory.
func (b *built) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if b.http != nil {
		keep(b.http.Shutdown(context.Background()))
	}
	if b.store != nil {
		keep(b.store.Close())
	}
	if b.dir != "" {
		keep(os.RemoveAll(b.dir))
	}
	return first
}

const (
	// setupSamples is how many times each round builds the workload.
	setupSamples = 5
	// viewerRate is the viewer load on a store-backed workload, in
	// requests per second.
	viewerRate = 100
)

// round is what one build-and-run measured.
type round struct {
	setup      []time.Duration
	run        time.Duration
	rep        *core.Report
	l          *ledger
	entries    []entry
	hybrid     []int
	digest     string
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64 // GC CPU seconds during Run
	cpu        float64 // all CPU seconds during Run
	completed  []int64
	view       viewerStats
	store      imagestore.Stats
	served     serve.Stats
	attempted  int
	failed     int
}

// runRound builds the workload, runs it, checks its output and tears
// it down. Failed output checks are added to p.
func (w *workload) runRound(seed int64, traced bool, tmp string, p *problems) (*round, error) {
	imgs0 := render.ImagesOutstanding()
	// Set-up takes well under a millisecond, so each round times
	// several builds and runs the last; the others are torn down unrun.
	r := &round{}
	var b *built
	for i := 0; i < setupSamples; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if b, err = w.build(seed, traced, tmp); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0))
	}
	r.l, r.entries, r.hybrid = b.l, b.entries, b.hybrid
	var vw *viewers
	if b.srv != nil {
		vw = startViewers(b.base, seed, viewerRate, min(2, runtime.NumCPU()))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	start := time.Now()
	rep, runErr := b.p.Run(w.steps)
	r.run = time.Since(start)
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&m1)
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcCPU, r.cpu = gc1-gc0, cpu1-cpu0
	if vw != nil {
		r.view = vw.finish()
	}
	r.rep = rep
	r.completed = b.p.Staging().CompletedPerBucket()
	if b.store != nil {
		r.store = b.store.Stats()
		r.served = b.srv.Stats()
	}
	if rep == nil {
		b.close()
		return nil, fmt.Errorf("%s: run: %w", w.name, runErr)
	}
	if runErr != nil {
		p.add("%s: run: %v", w.name, runErr)
	}
	r.check(w, b.p, p)
	releaseFrames(rep)
	// Later rounds need only the counters: holding every round's
	// results would grow the heap, and peak_rss_mb, with run length.
	rep.Results = nil
	if n := render.ImagesOutstanding(); n != imgs0 {
		p.add("%s: %d pooled framebuffers outstanding after the run, %d before", w.name, n, imgs0)
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	return r, nil
}

// check is the output check: every (analysis, step) result is present
// and not Degraded, the run recorded no errors, no region stays pinned,
// the transport saw no retries or corrupt payloads, and every hybrid
// result has both latency instants. It also digests the results.
func (r *round) check(w *workload, pl *core.Pipeline, p *problems) {
	rep := r.rep
	for _, err := range rep.Errs {
		p.add("%s: run error: %v", w.name, err)
	}
	if n := pl.PinnedRegions(); n != 0 {
		p.add("%s: %d regions still pinned after the drain", w.name, n)
	}
	if res := rep.Resilience; res.Retries != 0 || res.ChecksumFailures != 0 {
		p.add("%s: %d DART retries, %d checksum failures", w.name, res.Retries, res.ChecksumFailures)
	}
	h := sha256.New()
	for i, e := range r.entries {
		name := e.a.Name()
		for step := 1; step <= w.steps; step++ {
			r.attempted++
			v := rep.Result(name, step)
			_, degraded := v.(core.Degraded)
			missing := v == nil || degraded
			if !missing && isHybrid(r.hybrid, i) {
				missing = r.l.ready[i][step].Load() == 0 || r.l.done[i][step].Load() == 0
			}
			if missing {
				r.failed++
				p.add("%s: %s step %d: result missing or degraded (%T)", w.name, name, step, v)
				continue
			}
			fmt.Fprintf(h, "%s@%d=%s\n", name, step, digest(v))
		}
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
}

func isHybrid(hybrid []int, i int) bool {
	for _, j := range hybrid {
		if j == i {
			return true
		}
	}
	return false
}

// digest is core.ResultDigest, except for merge trees: a
// TopologyResult holds a *Tree, whose %v form is an address, so its
// digest covers the nodes in id order and the features instead. It
// leaves out Stream, the builder's work counters: Builder.sweep evicts
// in map order, so Stream.PeakLive can differ by one between identical
// runs while the tree itself does not.
func digest(v any) string {
	t, ok := v.(*core.TopologyResult)
	if !ok || t.Tree == nil {
		return core.ResultDigest(v)
	}
	ids := make([]int64, 0, len(t.Tree.Nodes))
	for id := range t.Tree.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	for _, id := range ids {
		n := t.Tree.Nodes[id]
		down := int64(-1)
		if n.Down != nil {
			down = n.Down.ID
		}
		fmt.Fprintf(h, "%d %x %d;", id, math.Float64bits(n.Value), down)
	}
	fmt.Fprintf(h, "%v", t.Features)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// releaseFrames hands in-memory framebuffers in the results back to
// the pool: the caller owns them once Run returns.
func releaseFrames(rep *core.Report) {
	for _, steps := range rep.Results {
		for _, v := range steps {
			switch f := v.(type) {
			case *render.Image:
				render.PutImage(f)
			case *render.FrameSet:
				for _, fr := range f.Frames {
					render.PutImage(fr.Img)
				}
			}
		}
	}
}
