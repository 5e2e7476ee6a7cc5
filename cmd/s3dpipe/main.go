// Command s3dpipe runs one declarative pipeline config: it builds the
// declared hybrid in-situ/in-transit topology through registry.Build,
// runs it, and prints the run summary.
//
//	s3dpipe -config examples/configs/quickstart.json
//	s3dpipe -config examples/configs/brownout.json -obs :6060 -hold
//
// The config says what runs: grid, analyses and their placement, step
// count, fabric, faults, recovery journal and image store (see
// PIPELINES.md). The flags only say what to do with the run:
//
//	-resume    continue an interrupted journaled run (single tenant)
//	-timeline  print the execution Gantt chart (single tenant)
//	-images    write the final-step renders to a directory (single tenant)
//	-obs       serve /metrics, /trace.json, /events.jsonl, /status, /debug/pprof
//	-obs-dump  write trace.json, events.jsonl and metrics.prom after the run
//	-hold      keep the -obs endpoint and the image server up after the run
//
// A single-tenant run prints the Table II cost breakdown; every run
// prints each tenant's overload, resilience and recovery summary.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/recovery"
	"insitu/internal/registry"
	"insitu/internal/render"
	"insitu/internal/serve"

	// Imported for its analysis registrations (the "poison" drill
	// route), so the tenants scenario config builds.
	_ "insitu/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "s3dpipe:", err)
		os.Exit(1)
	}
}

// options are the flags no config key covers.
type options struct {
	resume, timeline, hold bool
	images, obsAddr, dump  string
}

// run parses args, builds the config they name, runs it, and prints
// the summary to w; flag usage goes to usage.
func run(args []string, w, usage io.Writer) error {
	fs := flag.NewFlagSet("s3dpipe", flag.ContinueOnError)
	fs.SetOutput(usage)
	configPath := fs.String("config", "", "declarative pipeline config file (JSON; required, see PIPELINES.md)")
	var o options
	fs.BoolVar(&o.resume, "resume", false, "continue an interrupted run from its journal's last committed step (needs a config recovery block)")
	fs.BoolVar(&o.timeline, "timeline", false, "print the execution Gantt chart (temporal multiplexing)")
	fs.StringVar(&o.images, "images", "", "directory to write final-step renders to")
	fs.StringVar(&o.obsAddr, "obs", "", "serve the live observability endpoint (/metrics, /trace.json, /events.jsonl, /status, /debug/pprof) on this address, e.g. :6060")
	fs.StringVar(&o.dump, "obs-dump", "", "directory to write trace.json, events.jsonl, and metrics.prom to after the run")
	fs.BoolVar(&o.hold, "hold", false, "keep the -obs endpoint and the config's image server up after the run until SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return errors.New("-config FILE is required")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	cfg, err := registry.LoadConfig(*configPath)
	if err != nil {
		return err
	}
	if len(cfg.Tenants) > 1 && (o.resume || o.timeline || o.images != "") {
		return errors.New("-resume, -timeline and -images apply to single-tenant configs only")
	}
	if o.resume && cfg.Recovery == nil {
		return errors.New("-resume requires a config recovery block")
	}

	b, err := registry.Build(cfg)
	if err != nil {
		return err
	}
	if b.Scheduler != nil {
		err = runMulti(w, b, o)
	} else {
		err = runSingle(w, b, o)
	}
	// Closing the image store syncs its blob segment; a failure there
	// can lose frames the run reported as filed.
	if cerr := b.Close(); err == nil {
		err = cerr
	}
	return err
}

// runSingle runs a single-tenant topology and prints the classic
// s3dpipe report: journal summary, timeline, store info, the Table II
// cost breakdown, the run summary, and the final-step topology and
// render artifacts.
func runSingle(w io.Writer, b *registry.Built, o options) error {
	p := b.Pipeline
	t := &b.Config.Tenants[0]
	steps := b.Steps()

	var rec *obs.Recorder
	if o.timeline {
		rec = p.EnableObs().Recorder()
	}
	pl, stop, err := setupObs(w, p.EnableObs, func() any { return p.Status() }, o)
	if err != nil {
		return err
	}
	if b.Store != nil && pl != nil {
		b.Store.PublishTo(pl.Registry())
	}

	// The serving tier starts before the run so live viewers can poll
	// latest.json while frames are still landing.
	serveAddr := ""
	if b.Config.Store != nil {
		serveAddr = b.Config.Store.Serve
	}
	if serveAddr != "" {
		sv := serve.New(b.Store)
		if pl != nil {
			sv.PublishTo(pl.Registry())
		}
		ln, err := net.Listen("tcp", serveAddr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: sv}
		go srv.Serve(ln)
		fmt.Fprintf(w, "image serving tier on http://%s/ (viewer page, /db/info.json, /latest.json)\n\n", ln.Addr())
		defer srv.Close()
	}

	fmt.Fprintf(w, "s3dpipe: grid %dx%dx%d, %d simulation ranks, %d DataSpaces shards, %d buckets, %d steps\n\n",
		t.Sim.NX, t.Sim.NY, t.Sim.NZ, t.Sim.PX*t.Sim.PY*t.Sim.PZ,
		b.Config.Fabric.DSServers, b.Config.TransitBuckets(), steps)
	var rep *core.Report
	if o.resume {
		rep, err = p.Resume(steps)
	} else {
		rep, err = p.Run(steps)
	}
	if err != nil {
		return err
	}
	// Hold covers the serving tier too: with serving and -hold the
	// database stays browsable after the run until SIGINT/SIGTERM.
	defer finishObs(w, stop, o.hold && (o.obsAddr != "" || serveAddr != ""))
	if err := dumpObs(w, pl, o.dump); err != nil {
		return err
	}

	if rr := rep.Recovery; rr != nil {
		fmt.Fprintf(w, "recovery: %d commits, %d checkpoints, %d journal fsyncs\n",
			rr.Commits, rr.Checkpoints, rr.JournalFsyncs)
		if o.resume {
			fmt.Fprintf(w, "resumed from step %d (checkpoint %d): %d tasks replayed in %.3fs\n",
				rr.ResumedFrom, rr.CheckpointStep, rr.ReplayedTasks, rr.ResumeSeconds)
		}
		for _, warn := range rep.Warnings {
			fmt.Fprintln(w, "warning:", warn)
		}
		fmt.Fprintln(w)
	}

	if rec != nil {
		fmt.Fprintln(w, obs.Gantt(rec, 100))
		util := obs.Utilization(rec)
		lanes := make([]string, 0, len(util))
		for lane := range util {
			lanes = append(lanes, lane)
		}
		sort.Slice(lanes, func(i, j int) bool {
			return lanes[i] == "sim" || (lanes[j] != "sim" && lanes[i] < lanes[j])
		})
		fmt.Fprint(w, "lane utilization:")
		for _, lane := range lanes {
			fmt.Fprintf(w, " %s=%.0f%%", lane, 100*util[lane])
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w)
	}

	if b.Store != nil {
		info := b.Store.Info()
		fmt.Fprintf(w, "image store: %d frames in %d blobs (%.2f MB) under %s; vars %v, cams %v, latest step %d\n\n",
			info.Frames, info.Blobs, float64(info.Bytes)/1e6, b.Config.Store.Dir, info.Vars, info.Cams, info.LatestStep)
	}

	total, perStep, n := rep.Metrics.SimTime()
	fmt.Fprintf(w, "simulation: %d steps, %v total, %v per step\n\n", n, total.Round(1e6), perStep.Round(1e6))
	fmt.Fprintln(w, rep.Metrics.TableII())
	fmt.Fprintf(w, "network: %d transfers, %.3f MB moved, %v modeled busy\n\n",
		rep.Net.Transfers, float64(rep.Net.BytesMoved)/1e6, rep.Net.ModeledBusy.Round(1e3))
	printSummary(w, b, map[string]*core.Report{t.Name: rep})

	for _, a := range b.Tenants[0].Analyses {
		if a.Name() != "hybrid topology" {
			continue
		}
		if tr, ok := rep.Result(a.Name(), lastDue(steps, a.Every())).(*core.TopologyResult); ok && tr != nil {
			fmt.Fprintf(w, "\ntopology (final step): %d tree nodes resident of %d streamed (peak %d), %d maxima",
				len(tr.Tree.Nodes), tr.Stream.Declared, tr.Stream.PeakLive, len(tr.Tree.Maxima()))
			if len(tr.Features) > 0 {
				fmt.Fprintf(w, ", %d features above threshold", len(tr.Features))
			}
			fmt.Fprintln(w)
		}
	}

	if o.images == "" {
		return nil
	}
	if err := os.MkdirAll(o.images, 0o755); err != nil {
		return err
	}
	saved := map[string]bool{}
	for _, a := range b.Tenants[0].Analyses {
		var file string
		switch a.(type) {
		case *core.VizInSitu:
			file = "insitu.png"
		case *core.VizHybrid:
			file = "hybrid.png"
		default:
			continue
		}
		if saved[file] {
			continue
		}
		if img, ok := rep.Result(a.Name(), lastDue(steps, a.Every())).(*render.Image); ok {
			path := filepath.Join(o.images, file)
			if err := img.SavePNG(path); err != nil {
				return err
			}
			fmt.Fprintln(w, "wrote", path)
			saved[file] = true
		}
	}
	return nil
}

// runMulti runs a multi-tenant topology on its shared scheduler and
// prints the run summary.
func runMulti(w io.Writer, b *registry.Built, o options) error {
	s := b.Scheduler
	steps := b.Steps()
	fmt.Fprintf(w, "s3dpipe: multi-tenant fabric %q, %d tenants, %d buckets, %d steps\n\n",
		b.Config.Name, len(b.Tenants), b.Config.TransitBuckets(), steps)

	names := make([]string, 0, len(b.Tenants))
	for _, t := range b.Tenants {
		names = append(names, t.Name)
	}
	pl, stop, err := setupObs(w, s.EnableObs, func() any {
		return map[string]any{
			"tenants":        names,
			"active_buckets": s.Staging().ActiveBuckets(),
		}
	}, o)
	if err != nil {
		return err
	}

	reps, err := s.Run(steps)
	if err != nil {
		// Analysis-route failures (e.g. a drill route's deliberate
		// crashes) leave the per-tenant reports usable; surface the
		// error and summarize what ran.
		fmt.Fprintf(w, "run finished with analysis errors: %v\n\n", err)
	}
	defer finishObs(w, stop, o.hold && o.obsAddr != "")
	if err := dumpObs(w, pl, o.dump); err != nil {
		return err
	}
	printSummary(w, b, reps)
	return nil
}

// printSummary prints the run summary every config gets, one tenant or
// many: each tenant's overload and resilience counters, worst step
// wall and endpoint traffic; the fabric's quarantine, bucket pool and
// credits; and for every hybrid route when it last ran degraded, its
// breaker position and, if the quarantine ever opened it, its
// quarantine state. reps holds each tenant's report by name.
func printSummary(w io.Writer, b *registry.Built, reps map[string]*core.Report) {
	steps := b.Steps()
	for _, t := range b.Tenants {
		rep := reps[t.Name]
		if rep == nil {
			continue
		}
		if t.Name != "" {
			fmt.Fprintf(w, "tenant %s:\n", t.Name)
		}
		o := rep.Overload
		fmt.Fprintln(w, "overload control:")
		fmt.Fprintf(w, "  credits denied       %d\n", o.CreditsDenied)
		fmt.Fprintf(w, "  steps shaped         %d\n", o.StepsShaped)
		fmt.Fprintf(w, "  steps shed           %d\n", o.StepsShed)
		fmt.Fprintf(w, "  in-situ fallbacks    %d\n", o.StepsFallback)
		fmt.Fprintf(w, "  breaker opens        %d\n", o.BreakerOpens)
		fmt.Fprintf(w, "  breaker transitions  %d\n", o.BreakerTransitions)
		r := rep.Resilience
		fmt.Fprintln(w, "resilience:")
		fmt.Fprintf(w, "  faults injected      %d\n", r.Faults)
		fmt.Fprintf(w, "  retries              %d\n", r.Retries)
		fmt.Fprintf(w, "  requeues             %d\n", r.Requeues)
		fmt.Fprintf(w, "  dead letters         %d\n", r.DeadLetters)
		fmt.Fprintf(w, "  degraded steps       %d\n", r.DegradedSteps)
		fmt.Fprintf(w, "  worst step wall      %v\n", rep.Metrics.MaxStepWall().Round(1e3))
		if b.Scheduler != nil {
			for _, ep := range b.Scheduler.TenantEndpoints(t.Name) {
				st := ep.Stats()
				fmt.Fprintf(w, "  endpoint %-16s %d retries, %d crc failures, %.3f MB moved\n",
					ep.Name(), st.Retries, st.ChecksumFailures, float64(ep.TransferBytes())/1e6)
			}
		}
		fmt.Fprintln(w)
	}

	// Every tenant pipeline reads the fabric's one credit account.
	credits := b.Tenants[0].Pipeline.Credits()
	s := b.Scheduler
	if s != nil || credits != nil {
		fmt.Fprintln(w, "fabric:")
		if s != nil {
			q := s.Quarantine()
			fmt.Fprintf(w, "  quarantine           %d opens, %d releases\n", q.Opens(), q.Releases())
			if a := s.Autoscaler(); a != nil {
				fmt.Fprintf(w, "  bucket pool          %d grows, %d shrinks, %d active\n",
					a.Grows(), a.Shrinks(), s.Staging().ActiveBuckets())
			}
		}
		if credits != nil {
			out, avail, total := credits.Snapshot()
			fmt.Fprintf(w, "  credits              %d/%d available, %d outstanding\n", avail, total, out)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "recovery:")
	for _, t := range b.Tenants {
		rep := reps[t.Name]
		if rep == nil {
			continue
		}
		prefix := ""
		if t.Name != "" {
			prefix = t.Name + "/"
		}
		breakers := t.Pipeline.BreakerStates()
		for _, route := range t.Routes {
			lastDegraded := 0
			for step := 1; step <= steps; step++ {
				if _, ok := rep.Result(route, step).(core.Degraded); ok {
					lastDegraded = step
				}
			}
			if lastDegraded == 0 {
				fmt.Fprintf(w, "  %s%-28s never degraded\n", prefix, route)
			} else {
				fmt.Fprintf(w, "  %s%-28s full hybrid again from step %d/%d\n",
					prefix, route, lastDegraded+1, steps)
			}
			if st, ok := breakers[route]; ok {
				fmt.Fprintf(w, "  %s%-28s breaker %v\n", prefix, route, st)
			}
			if s != nil && s.Quarantine().Opened(t.Name, route) {
				fmt.Fprintf(w, "  %s%-28s quarantine %v\n", prefix, route, s.Quarantine().State(t.Name, route))
			}
		}
	}
}

// setupObs enables the observability plane when -obs or -obs-dump was
// given and, for -obs, starts the live HTTP endpoint with status as
// its /status document. It returns the plane (nil when observability
// is off) and a server stop function (nil when no endpoint started).
func setupObs(w io.Writer, enable func() *obs.Plane, status func() any, o options) (*obs.Plane, func(), error) {
	if o.obsAddr == "" && o.dump == "" {
		return nil, nil, nil
	}
	pl := enable()
	if o.obsAddr == "" {
		return pl, nil, nil
	}
	ln, err := net.Listen("tcp", o.obsAddr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: obs.Handler(pl, status)}
	go srv.Serve(ln)
	fmt.Fprintf(w, "observability endpoint on http://%s/\n\n", ln.Addr())
	return pl, func() { srv.Close() }, nil
}

// finishObs optionally holds the live endpoint open until
// SIGINT/SIGTERM, then shuts the server down.
func finishObs(w io.Writer, stop func(), hold bool) {
	if hold {
		fmt.Fprintln(w, "holding observability endpoint open; SIGINT/SIGTERM to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
		<-ch
	}
	if stop != nil {
		stop()
	}
}

// dumpObs writes trace.json, events.jsonl, and metrics.prom under dir
// (nothing when dir is empty). Each export is rendered in memory and
// landed with an atomic temp-file+rename, so a crash mid-dump never
// leaves a torn artifact where a previous run's good one stood.
func dumpObs(w io.Writer, pl *obs.Plane, dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name   string
		render func(io.Writer) error
	}{
		{"trace.json", func(w io.Writer) error { return obs.WriteChromeTrace(w, pl.Recorder()) }},
		{"events.jsonl", func(w io.Writer) error { return obs.WriteJSONL(w, pl.Recorder()) }},
		{"metrics.prom", pl.Registry().WritePrometheus},
	} {
		path := filepath.Join(dir, f.name)
		var buf bytes.Buffer
		if err := f.render(&buf); err != nil {
			return err
		}
		if err := recovery.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", path)
	}
	return nil
}

// lastDue returns the last step at which a cadence-every analysis ran.
func lastDue(steps, every int) int {
	if every < 1 {
		every = 1
	}
	return steps - steps%every
}
