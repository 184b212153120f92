// Byzantine degradation campaigns: sweep a (crash count × Byzantine count ×
// corruption strategy) grid against a protocol workload and classify every
// cell by the worst honest-side outcome observed across its runs —
//
//	safe     every run kept honest safety AND honest progress;
//	degraded safety held but some run starved honest processes within the
//	         step horizon (the corruption's liveness price);
//	violated some run broke an honest-side safety property — the cell's
//	         first violating run is reported with its corrupting-write
//	         trace and flight-recorder tail.
//
// Populations are drawn per run (adversary.DrawPopulation), so a cell's
// verdict aggregates over WHICH processes are faulty as well as over
// schedules. Everything is seed-deterministic and the per-cell tallies fold
// key-wise, so the matrix is invariant under the campaign worker count.
//
// Safety is checked over honest processes only — each target's check skips
// the corrupt set, since a Byzantine process's own outputs carry no
// obligations (standard Byzantine semantics); the BG target is the
// exception, its thread decisions are unattributable to simulators, so the
// full check applies.

package explore

import (
	"context"
	"fmt"
	"sort"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// ByzConfig parameterizes a Byzantine degradation sweep.
type ByzConfig struct {
	// Target is the workload, a Targets entry's name.
	Target string
	// N is the system size.
	N int
	// CrashMax and ByzMax bound the swept fault counts: cells range over
	// crash 0..CrashMax × byz 0..ByzMax, skipping combinations with
	// crash+byz ≥ n.
	CrashMax, ByzMax int
	// Strategies are the corruption strategies swept for byz ≥ 1 cells
	// (byz = 0 cells always run strategy "none" exactly once).
	Strategies []adversary.Strategy
	// Runs is the number of runs per cell (population + schedule samples).
	Runs int
	// Steps is the per-run step horizon.
	Steps int
	// Seed is the master seed; per-cell and per-run seeds derive from it.
	Seed int64
	// Workers is the campaign worker count (0 means GOMAXPROCS).
	Workers int
}

// ByzCell is one classified cell of the degradation matrix.
type ByzCell struct {
	Crash    int    `json:"crash"`
	Byz      int    `json:"byz"`
	Strategy string `json:"strategy"`
	Safe     int    `json:"safe"`
	Degraded int    `json:"degraded"`
	Violated int    `json:"violated"`
	// Class is the worst verdict observed: "violated" > "degraded" > "safe".
	Class string `json:"class"`
	// Violation is the cell's first violating run (in run order), when any:
	// the honest-side check error with the corrupting-write trace and
	// flight-recorder tail attached.
	Violation *Violation `json:"violation,omitempty"`
}

// byzRun is one reusable Byzantine rig: a NoRecycle direct-dispatch runner
// for the target's machine form, a pooled Byzantine director reconfigured
// per run, and the target's harness.
type byzRun struct {
	*harness
	n      int
	runner *sim.Runner
	dir    *adversary.Byzantine
}

// newByzRun builds the rig for a target. Mutating directors retain and
// replay register values, so every rig pins NoRecycle (see sim.WriteMutator).
func newByzRun(t Target, n, flightK int) (*byzRun, error) {
	h, err := t.build(n)
	if err != nil {
		return nil, err
	}
	runner, err := h.directedRunner(n, flightK, true)
	if err != nil {
		return nil, err
	}
	dir, err := adversary.NewByzantine(adversary.ByzantineConfig{N: n})
	if err != nil {
		runner.Close()
		return nil, err
	}
	return &byzRun{harness: h, n: n, runner: runner, dir: dir}, nil
}

// honestProgress reports whether every honest live process delivered its
// result — the run's liveness verdict and its early-stop condition.
func (r *byzRun) honestProgress(honest procset.Set) bool {
	for _, p := range honest.Members() {
		if !r.progress(p) {
			return false
		}
	}
	return true
}

// one executes a single Byzantine run: draw nothing (the caller drew the
// population), reconfigure the pooled director, replay the rig, classify.
func (r *byzRun) one(crashed, corrupt procset.Set, strat adversary.Strategy, seed int64, steps int) (string, error) {
	r.reset()
	if err := r.runner.Reset(); err != nil {
		return "", err
	}
	if fl := r.runner.FlightRecorder(); fl != nil {
		// Per-run ring reset: the reported tail must belong to THIS run, so
		// the cell's Detail is independent of pooled rig reuse order.
		fl.Reset()
	}
	if err := r.dir.Reconfigure(adversary.ByzantineConfig{
		N: r.n, Crashed: crashed, Corrupt: corrupt, Strategy: strat, Seed: seed,
	}); err != nil {
		return "", err
	}
	honest := procset.FullSet(r.n).Minus(crashed).Minus(corrupt)
	r.dir.DriveDirected(r.runner, steps, 500, func() bool { return r.honestProgress(honest) })
	if cerr := r.check(corrupt); cerr != nil {
		return "violated", cerr
	}
	if !r.honestProgress(honest) {
		return "degraded", nil
	}
	return "safe", nil
}

// byzCellKey names a cell for job names and tally keys.
func byzCellKey(crash, byz int, strat adversary.Strategy) string {
	return fmt.Sprintf("c%d,b%d,%s", crash, byz, strat)
}

// worseVerdict orders safe < degraded < violated.
func worseVerdict(a, b string) string {
	rank := map[string]int{"safe": 0, "degraded": 1, "violated": 2}
	if rank[b] > rank[a] {
		return b
	}
	return a
}

// ByzantineCampaign sweeps the degradation grid for cfg.Target: one
// campaign job per cell, cfg.Runs runs per job, each run drawing its
// mixed population from the run seed. It returns the campaign report and
// the classified matrix, cells in deterministic (crash, byz, strategy)
// order. Violated cells are DATA, not campaign failures: the report stays
// green and each cell carries its first violation (trace + flight tail).
func ByzantineCampaign(ctx context.Context, cfg ByzConfig, onResult func(campaign.Outcome)) (*campaign.Report, []ByzCell, error) {
	if cfg.N < 2 || cfg.N > procset.MaxProcs {
		return nil, nil, fmt.Errorf("explore: byzantine sweep needs 2 ≤ n ≤ %d, got %d", procset.MaxProcs, cfg.N)
	}
	if cfg.Runs < 1 || cfg.Steps < 1 {
		return nil, nil, fmt.Errorf("explore: byzantine sweep needs runs ≥ 1 and steps ≥ 1, got %d and %d", cfg.Runs, cfg.Steps)
	}
	if cfg.CrashMax < 0 || cfg.ByzMax < 0 {
		return nil, nil, fmt.Errorf("explore: negative fault bounds (crash %d, byz %d)", cfg.CrashMax, cfg.ByzMax)
	}
	strategies := cfg.Strategies
	if len(strategies) == 0 {
		strategies = []adversary.Strategy{adversary.StrategyFlip, adversary.StrategyStale, adversary.StrategySplit}
	}
	// Validate the target before spinning up workers.
	target, err := LookupTarget(cfg.Target)
	if err != nil {
		return nil, nil, err
	}
	if _, err := target.build(cfg.N); err != nil {
		return nil, nil, err
	}

	type cellID struct {
		crash, byz int
		strat      adversary.Strategy
	}
	var cells []cellID
	for c := 0; c <= cfg.CrashMax; c++ {
		for b := 0; b <= cfg.ByzMax; b++ {
			if c+b >= cfg.N {
				continue
			}
			if b == 0 {
				cells = append(cells, cellID{c, 0, adversary.StrategyNone})
				continue
			}
			for _, s := range strategies {
				cells = append(cells, cellID{c, b, s})
			}
		}
	}
	if len(cells) == 0 {
		return nil, nil, fmt.Errorf("explore: empty sweep grid (n %d, crash ≤ %d, byz ≤ %d)", cfg.N, cfg.CrashMax, cfg.ByzMax)
	}

	flightK := obs.FlightK(ctx)
	pool := campaign.NewPool(func() (*byzRun, error) { return newByzRun(target, cfg.N, flightK) })
	defer pool.Drain(func(r *byzRun) { r.runner.Close() })

	jobs := make([]campaign.Job, 0, len(cells))
	for _, cell := range cells {
		cell := cell
		key := byzCellKey(cell.crash, cell.byz, cell.strat)
		jobs = append(jobs, campaign.Job{
			Name: "byz[" + key + "]",
			Run: func(ctx context.Context, jobSeed int64) (campaign.Outcome, error) {
				rig, err := pool.Get()
				if err != nil {
					return campaign.Outcome{}, err
				}
				defer pool.Put(rig)
				if flightK > 0 {
					defer dumpFlightOnPanic(rig.runner, "byzantine cell "+key)
				}
				tallies := map[string]int{}
				worst := "safe"
				var detail *Violation
				executed := 0
				for i := 0; i < cfg.Runs; i++ {
					if ctx.Err() != nil {
						break
					}
					runSeed := campaign.SeedFor(jobSeed, i)
					crashed, corrupt, err := adversary.DrawPopulation(cfg.N, cell.crash, cell.byz, runSeed)
					if err != nil {
						return campaign.Outcome{}, err
					}
					executed++
					verdict, cerr := rig.one(crashed, corrupt, cell.strat, runSeed, cfg.Steps)
					if verdict == "" {
						return campaign.Outcome{}, cerr
					}
					tallies["cell["+key+"]:"+verdict]++
					tallies["mutations"] += rig.dir.Mutations()
					worst = worseVerdict(worst, verdict)
					if verdict == "violated" && detail == nil {
						detail = &Violation{
							Err:    fmt.Errorf("cell[%s] run %d (crashed %v, byzantine %v): %w", key, i, crashed, corrupt, cerr),
							Trace:  rig.dir.FormatTrace(rig.runner),
							Flight: obs.FlightDump(rig.runner),
						}
					}
				}
				tallies["runs"] = executed
				// Violated cells are measurements, not campaign failures: Ok
				// stays true so resilience machinery never retries a cell and
				// the matrix stays deterministic.
				return campaign.Outcome{
					Verdict: worst,
					Ok:      true,
					Steps:   executed,
					Tallies: tallies,
					Detail:  detail,
				}, nil
			},
		})
	}

	// Collect per-cell violation details from the outcome stream (they ride
	// Outcome.Detail, which Report does not retain for green jobs). Keyed by
	// job name, so the collection is worker-count independent.
	details := make(map[string]*Violation)
	collect := func(out campaign.Outcome) {
		if out.Detail != nil {
			if v, ok := campaign.DecodeDetail[*Violation](out.Detail); ok && v != nil {
				details[out.Name] = v
			}
		}
		if onResult != nil {
			onResult(out)
		}
	}
	rep, err := campaign.Run(ctx, campaign.Config{Workers: cfg.Workers, Seed: cfg.Seed, OnResult: collect}, jobs)
	if err != nil {
		return rep, nil, err
	}

	matrix := make([]ByzCell, 0, len(cells))
	for _, cell := range cells {
		key := byzCellKey(cell.crash, cell.byz, cell.strat)
		bc := ByzCell{
			Crash:    cell.crash,
			Byz:      cell.byz,
			Strategy: cell.strat.String(),
			Safe:     rep.Summary.Tallies["cell["+key+"]:safe"],
			Degraded: rep.Summary.Tallies["cell["+key+"]:degraded"],
			Violated: rep.Summary.Tallies["cell["+key+"]:violated"],
		}
		switch {
		case bc.Violated > 0:
			bc.Class = "violated"
		case bc.Degraded > 0:
			bc.Class = "degraded"
		default:
			bc.Class = "safe"
		}
		bc.Violation = details["byz["+key+"]"]
		matrix = append(matrix, bc)
	}
	sort.SliceStable(matrix, func(i, j int) bool {
		if matrix[i].Crash != matrix[j].Crash {
			return matrix[i].Crash < matrix[j].Crash
		}
		if matrix[i].Byz != matrix[j].Byz {
			return matrix[i].Byz < matrix[j].Byz
		}
		return matrix[i].Strategy < matrix[j].Strategy
	})
	return rep, matrix, nil
}
