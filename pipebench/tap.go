package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/core"
	"insitu/internal/imagestore"
	"insitu/internal/render"
)

// ledger is one round's record of what the wrappers saw. Untraced, it
// stamps only two instants per (analysis, step): data-ready, when the
// last rank's InSituStage returns, and the result's end, when InTransit
// returns. Traced, it also stamps the in-situ calls of in-situ
// analyses, the last rank's start of each in-situ call, the in-transit
// calls and, with a store, when the step's last frame is committed, and
// it keeps spans. Instants are nanoseconds since t0; index
// [analysis][step].
type ledger struct {
	t0     time.Time
	traced bool
	keys   []string // short analysis key per analysis index

	ready     [][]atomic.Int64 // max over ranks of the in-situ call's return
	done      [][]atomic.Int64 // in-transit return
	committed [][]atomic.Int64 // last frame committed to the store (traced)
	lastStart [][]atomic.Int64 // max over ranks of the in-situ call's start (traced)
	tStart    [][]atomic.Int64 // InTransit call start (traced)
	transit   [][]atomic.Int64 // InTransit duration (traced)

	mu    sync.Mutex
	png   []float64 // ms per frame encode (traced)
	put   []float64 // ms per Store.Put (traced)
	spans []span
}

// span is one timed call into a layer. Every span of one (analysis,
// step) shares its ID; Parent is the Seq of that pair's root span,
// -1 on the root itself.
type span struct {
	Seq    int    `json:"seq"`
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newLedger(keys []string, steps int, traced bool) *ledger {
	mk := func() [][]atomic.Int64 {
		m := make([][]atomic.Int64, len(keys))
		for i := range m {
			m[i] = make([]atomic.Int64, steps+1)
		}
		return m
	}
	return &ledger{
		t0: time.Now(), traced: traced, keys: keys,
		ready: mk(), done: mk(), committed: mk(), lastStart: mk(), tStart: mk(), transit: mk(),
	}
}

func (l *ledger) since(t time.Time) int64 { return int64(t.Sub(l.t0)) }

func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// rootSeq is the Seq reserved for the root span of (analysis, step):
// roots take the first len(keys)*(steps+1) sequence numbers.
func (l *ledger) rootSeq(a, step int) int { return a*len(l.ready[a]) + step }

func (l *ledger) addSpan(a, step int, name string, start, end int64) {
	l.mu.Lock()
	l.spans = append(l.spans, span{
		Seq: len(l.keys)*len(l.ready[0]) + len(l.spans), ID: fmt.Sprintf("%s@%d", l.keys[a], step),
		Name: name, Parent: l.rootSeq(a, step), Start: start, End: end,
	})
	l.mu.Unlock()
}

// tap times one analysis' calls into the ledger under index a.
type tap struct {
	l *ledger
	a int
}

func (t *tap) inSituCall(ctx *core.Ctx, start, end time.Time) {
	s, e := t.l.since(start), t.l.since(end)
	storeMax(&t.l.lastStart[t.a][ctx.Step], s)
	storeMax(&t.l.ready[t.a][ctx.Step], e)
	t.l.addSpan(t.a, ctx.Step, fmt.Sprintf("insitu.%s.rank%d", t.l.keys[t.a], ctx.Comm.ID()), s, e)
}

func (t *tap) runInSitu(ctx *core.Ctx, f func(*core.Ctx) (any, error)) (any, error) {
	if !t.l.traced {
		return f(ctx)
	}
	start := time.Now()
	out, err := f(ctx)
	t.inSituCall(ctx, start, time.Now())
	return out, err
}

func (t *tap) stage(ctx *core.Ctx, f func(*core.Ctx) ([]byte, error)) ([]byte, error) {
	var start time.Time
	if t.l.traced {
		start = time.Now()
	}
	b, err := f(ctx)
	end := time.Now()
	if t.l.traced {
		t.inSituCall(ctx, start, end)
	} else {
		storeMax(&t.l.ready[t.a][ctx.Step], t.l.since(end))
	}
	return b, err
}

func (t *tap) inTransit(step int, payloads [][]byte, f func(int, [][]byte) (any, error)) (any, error) {
	var start time.Time
	if t.l.traced {
		start = time.Now()
	}
	out, err := f(step, payloads)
	end := time.Now()
	t.l.done[t.a][step].Store(t.l.since(end))
	if t.l.traced {
		s, e := t.l.since(start), t.l.since(end)
		t.l.tStart[t.a][step].Store(s)
		t.l.transit[t.a][step].Store(e - s)
		t.l.addSpan(t.a, step, "transit."+t.l.keys[t.a], s, e)
	}
	return out, err
}

// The wrappers embed the concrete analysis, so every optional
// interface it implements (ShapedStage, QuantizableStage,
// InSituFallback, FrameAnalysis) stays visible to the pipeline; they
// override only the calls they time.

type statsInSitu struct {
	*core.StatsInSitu
	t *tap
}

func (w statsInSitu) RunInSitu(ctx *core.Ctx) (any, error) {
	return w.t.runInSitu(ctx, w.StatsInSitu.RunInSitu)
}

type vizInSitu struct {
	*core.VizInSitu
	t *tap
}

func (w vizInSitu) RunInSitu(ctx *core.Ctx) (any, error) {
	return w.t.runInSitu(ctx, w.VizInSitu.RunInSitu)
}

type statsHybrid struct {
	*core.StatsHybrid
	t *tap
}

func (w statsHybrid) InSituStage(ctx *core.Ctx) ([]byte, error) {
	return w.t.stage(ctx, w.StatsHybrid.InSituStage)
}

func (w statsHybrid) InTransit(step int, p [][]byte) (any, error) {
	return w.t.inTransit(step, p, w.StatsHybrid.InTransit)
}

type vizHybrid struct {
	*core.VizHybrid
	t *tap
}

func (w vizHybrid) InSituStage(ctx *core.Ctx) ([]byte, error) {
	return w.t.stage(ctx, w.VizHybrid.InSituStage)
}

func (w vizHybrid) InTransit(step int, p [][]byte) (any, error) {
	return w.t.inTransit(step, p, w.VizHybrid.InTransit)
}

type topology struct {
	*core.TopologyHybrid
	t *tap
}

func (w topology) InSituStage(ctx *core.Ctx) ([]byte, error) {
	return w.t.stage(ctx, w.TopologyHybrid.InSituStage)
}

func (w topology) InTransit(step int, p [][]byte) (any, error) {
	return w.t.inTransit(step, p, w.TopologyHybrid.InTransit)
}

// wrap returns a timing wrapper around one of the analyses the
// workloads use.
func wrap(a core.Analysis, t *tap) (core.Analysis, error) {
	switch c := a.(type) {
	case *core.StatsInSitu:
		return statsInSitu{c, t}, nil
	case *core.VizInSitu:
		return vizInSitu{c, t}, nil
	case *core.StatsHybrid:
		return statsHybrid{c, t}, nil
	case *core.VizHybrid:
		return vizHybrid{c, t}, nil
	case *core.TopologyHybrid:
		return topology{c, t}, nil
	}
	return nil, fmt.Errorf("no timing wrapper for %T", a)
}

// frameSink is the traced run's store hook. It does what
// Store.PutFrame does in two timed halves, EncodePNG then Store.Put,
// and stamps when each (analysis, step)'s last frame is committed. The
// untraced run hands the pipeline the store itself.
type frameSink struct {
	st    *imagestore.Store
	l     *ledger
	byVar map[string]int // frame variable -> analysis index
}

func (s *frameSink) PutFrame(variable string, step int, cam string, img *render.Image) (string, error) {
	t0 := time.Now()
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		return "", err
	}
	t1 := time.Now()
	digest, err := s.st.Put(imagestore.Spec{Var: variable, Step: step, Cam: cam}, buf.Bytes())
	t2 := time.Now()
	s.l.mu.Lock()
	s.l.png = append(s.l.png, ms(t1.Sub(t0)))
	s.l.put = append(s.l.put, ms(t2.Sub(t1)))
	s.l.mu.Unlock()
	if a, ok := s.byVar[variable]; ok {
		storeMax(&s.l.committed[a][step], s.l.since(t2))
		s.l.addSpan(a, step, "png", s.l.since(t0), s.l.since(t1))
		s.l.addSpan(a, step, "put", s.l.since(t1), s.l.since(t2))
	}
	return digest, err
}
