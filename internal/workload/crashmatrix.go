package workload

import (
	"time"

	"insitu/internal/codec"
	"insitu/internal/core"
	"insitu/internal/grid"
	"insitu/internal/netsim"
	"insitu/internal/overload"
	"insitu/internal/recovery"
	"insitu/internal/sim"
)

// The crash matrix is the recovery plane's chaos gate: a fixed-seed
// hybrid run with the step journal and periodic checkpoints enabled is
// killed at every journal phase boundary — before the step's admit
// record, between the per-route submit records, after the checkpoint
// files but before their journal record, and right after a commit —
// then resumed, and the resumed run must converge to the uninterrupted
// golden run: identical per-step commit digests, identical live
// results, byte-identical final checkpoint files, and no leaked
// credits or pinned buffers.
//
// All constants are exported so every caller of the gate runs the
// identical configuration.
const (
	// CrashMatrixSteps is the run length in simulation steps.
	CrashMatrixSteps = 10
	// CrashMatrixSeed fixes the simulation initial condition.
	CrashMatrixSeed = 7
	// CrashMatrixEvery is the checkpoint cadence in steps.
	CrashMatrixEvery = 2
)

// NewCrashMatrixPipeline builds the crash-matrix pipeline: a 2-rank
// simulation with the two hybrid routes (visualization and
// statistics), the delta codec on every route (so a resume must
// re-anchor base state correctly), and recovery journaling into dir.
// kill is the injected crash (nil for the golden run and for resumes).
//
// Overload control is enabled with non-binding thresholds: the
// admission ladder deterministically holds every step at the full
// rung, while the credit account stays live so the soak can assert
// credits re-settle exactly once across a crash/resume pair.
//
// The second return value lists the hybrid route names.
func NewCrashMatrixPipeline(dir string, kill recovery.KillFunc) (*core.Pipeline, []string, error) {
	simCfg := sim.DefaultConfig(grid.NewBox(16, 12, 6), 2, 1, 1)
	simCfg.SubSteps = 2
	simCfg.Seed = CrashMatrixSeed

	cfg := core.Config{
		Sim:       simCfg,
		DSServers: 2,
		Buckets:   2,
		Net:       netsim.Gemini(),
		Overload: &overload.Config{
			Breaker: overload.BreakerConfig{
				FailureThreshold: 1 << 20,
				Cooldown:         time.Hour,
			},
			Ladder: overload.LadderConfig{
				QueueHigh: 1 << 20, QueueLow: 1,
				DegradeAfter: 1 << 20, RecoverAfter: 1,
			},
			QueueBound:      64,
			ProbeLatencyMax: time.Hour,
		},
		Codecs: map[string]codec.Spec{"*": {ID: codec.Delta}},
		Recovery: &core.RecoveryConfig{
			Dir:   dir,
			Every: CrashMatrixEvery,
			Kill:  kill,
		},
	}
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, nil, err
	}
	viz := core.NewVizHybrid(20, 16, 2)
	stats := &core.StatsHybrid{Vars: []string{"T", "P"}}
	p.Register(viz)
	p.Register(stats)
	return p, []string{viz.Name(), stats.Name()}, nil
}
