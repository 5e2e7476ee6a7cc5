package core

import (
	"fmt"
	"sync"

	"insitu/internal/bufpool"
	"insitu/internal/codec"
	"insitu/internal/comm"
	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/netsim"
	"insitu/internal/obs"
	"insitu/internal/staging"
)

// fabric is the staging service every pipeline draws on, built once
// per run: the simulated interconnect, the DART fabric, the DataSpaces
// service, the codec registry, and the staging area, plus the
// rank-endpoint table the staging tier releases pinned regions
// through, the drain loop, and the close-when-drained rule. A
// standalone Pipeline owns a fabric with one tenant named ""; a
// Scheduler owns one with many. What differs between the two is handed
// to this one path as values: credit sizing and reservations, the
// admission guard, and a per-result drain hook.
type fabric struct {
	net    *netsim.Network
	dart   *dart.Fabric
	ds     *dataspaces.Service
	codecs *codec.Registry
	area   *staging.Area

	mu      sync.Mutex
	tenants []*Pipeline
	byName  map[string]*Pipeline
	eps     map[int]*dart.Endpoint // every tenant's rank endpoints, by id
	plane   *obs.Plane
	ran     bool
	closed  bool
}

// newFabric validates the shared sizing and builds the subsystems.
func newFabric(net netsim.Config, servers, buckets, maxAttempts int) (*fabric, error) {
	if servers < 1 {
		return nil, fmt.Errorf("core: need at least one DataSpaces server")
	}
	if buckets < 1 {
		return nil, fmt.Errorf("core: need at least one staging bucket")
	}
	df := dart.NewFabric(netsim.New(net))
	ds, err := dataspaces.New(df, servers)
	if err != nil {
		return nil, err
	}
	f := &fabric{
		net:    df.Network(),
		dart:   df,
		ds:     ds,
		codecs: codec.NewRegistry(),
		byName: make(map[string]*Pipeline),
		eps:    make(map[int]*dart.Endpoint),
	}
	// The registry is attached unconditionally: with no Codecs config
	// every registration resolves to the identity spec, which pins raw
	// bytes exactly as RegisterMem did.
	ds.SetCodecs(f.codecs)
	// Staging buffers are pooled: every in-transit handler in core
	// decodes its payloads into private structures (Unmarshal*) and
	// retains no input slice past its return.
	opts := []staging.Option{staging.WithRelease(f.release)}
	if maxAttempts > 0 {
		opts = append(opts, staging.WithMaxAttempts(maxAttempts))
	}
	if f.area, err = staging.New(df, ds, buckets, opts...); err != nil {
		return nil, err
	}
	return f, nil
}

// addTenant registers a tenant pipeline. A tenant added after the
// plane is attached publishes its families at once.
func (f *fabric) addTenant(p *Pipeline) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ran {
		return fmt.Errorf("core: scheduler already ran; tenants must be added before Run")
	}
	if _, dup := f.byName[p.tenant]; dup {
		return fmt.Errorf("core: tenant %q already added", p.tenant)
	}
	f.tenants = append(f.tenants, p)
	f.byName[p.tenant] = p
	if f.plane != nil {
		p.publish(f.plane)
	}
	return nil
}

// registerRank registers the endpoint of p's rank r — "sim-<rank>" for
// the standalone tenant "", "<tenant>/sim-<rank>" tagged with the
// tenant otherwise, so transfer noise is attributed to it — and enters
// it in the table the staging tier releases through.
func (f *fabric) registerRank(p *Pipeline, r int) *dart.Endpoint {
	name := fmt.Sprintf("sim-%d", r)
	if p.tenant != "" {
		name = p.tenant + "/" + name
	}
	ep := f.dart.RegisterT(name, p.tenant)
	f.mu.Lock()
	f.eps[ep.ID()] = ep
	f.mu.Unlock()
	p.mu.Lock()
	p.eps[r] = ep
	p.mu.Unlock()
	return ep
}

// release frees a pinned intermediate region once the staging bucket
// has pulled it and recycles the producer's marshal buffer, so
// steady-state timesteps reuse the same intermediate-data buffers
// instead of allocating fresh ones. Safe because in-situ stages build
// each payload from scratch and never touch it after RegisterMem.
func (f *fabric) release(d dataspaces.Descriptor) {
	f.mu.Lock()
	ep := f.eps[d.Handle.Endpoint]
	f.mu.Unlock()
	if ep != nil {
		if buf, err := ep.Reclaim(d.Handle); err == nil {
			bufpool.Put(buf)
		}
	}
}

// enableObs attaches one observability plane to the shared subsystems,
// publishes the interconnect's families, and has every tenant publish
// its own. It reports whether this call created the plane.
func (f *fabric) enableObs() (*obs.Plane, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.plane != nil {
		return f.plane, false
	}
	pl := obs.NewPlane()
	f.plane = pl
	f.dart.SetPlane(pl)
	f.ds.SetPlane(pl)
	f.area.SetPlane(pl)
	reg := pl.Registry()
	reg.CounterFunc("net_transfers_total", "transfers accounted on the simulated interconnect",
		func() float64 { return float64(f.net.Stats().Transfers) })
	reg.CounterFunc("net_bytes_moved_total", "bytes moved over the simulated interconnect",
		func() float64 { return float64(f.net.Stats().BytesMoved) })
	reg.CounterFunc("net_faults_total", "transfer attempts perturbed by the fault injector",
		func() float64 { return float64(f.net.Stats().Faulted) })
	for _, p := range f.tenants {
		p.publish(pl)
	}
	return pl, true
}

// begin marks the fabric's one run as started and returns its tenants.
func (f *fabric) begin(owner string) ([]*Pipeline, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ran {
		return nil, fmt.Errorf("core: a %s runs once; build a new one to run again", owner)
	}
	f.ran = true
	return append([]*Pipeline(nil), f.tenants...), nil
}

// enableCredits bounds each tenant's task queue and sizes the transit
// credit account to total, with a reserve-credit floor per account.
// Reservations only make sense when the supply can cover them with
// headroom to spare; a tiny account degrades to one shared pool rather
// than failing or starving every account.
func (f *fabric) enableCredits(queueBound, total, reserve int, accounts []string) error {
	f.ds.SetQueueBound(queueBound)
	reservations := make(map[string]int, len(accounts))
	for _, a := range accounts {
		reservations[a] = reserve
	}
	if reserve*len(reservations) >= total {
		reservations = nil
	}
	return f.ds.EnableCredits(total, reservations)
}

// run starts the staging area and every tenant's SPMD simulation,
// drains final results to their tenants concurrently, and returns once
// every simulation has finished and every in-transit task has drained.
// tick, when non-nil, runs on the drain goroutine after each result.
func (f *fabric) run(tenants []*Pipeline, steps int, tick func()) {
	for _, p := range tenants {
		p.installHandlers()
	}
	f.area.Start()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for res := range f.area.Results() {
			if p := f.byName[res.Task.Tenant]; p != nil {
				p.handleResult(res)
			}
			if tick != nil {
				tick()
			}
		}
	}()

	var wg sync.WaitGroup
	for _, p := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comm.Run(p.sim.Ranks(), func(r *comm.Rank) {
				if err := p.rankLoop(r, steps); err != nil {
					p.recordErr(err)
				}
			})
			p.mu.Lock()
			p.simDone = true
			p.mu.Unlock()
			f.maybeClose()
		}()
	}
	wg.Wait()
	f.area.Wait()
	<-drained
}

// maybeClose closes the task queue once every tenant's simulation has
// finished and every task it submitted has drained to its one final
// Result (requeued attempts emit nothing until the task completes or
// dead-letters). Counting drained results replaces an upfront expected
// count, which cannot anticipate degraded steps or requeues.
func (f *fabric) maybeClose() {
	f.mu.Lock()
	if !f.ran || f.closed {
		f.mu.Unlock()
		return
	}
	for _, p := range f.tenants {
		p.mu.Lock()
		done := p.simDone && p.submitted == p.completed
		p.mu.Unlock()
		if !done {
			f.mu.Unlock()
			return
		}
	}
	f.closed = true
	f.mu.Unlock()
	f.ds.Close()
}
