package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/check"
	"github.com/settimeliness/settimeliness/internal/core"
	"github.com/settimeliness/settimeliness/internal/explore"
	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/msgnet"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// workload is one round of campaign jobs over inputs drawn from the seed.
// Every call of jobs returns the same round, so rounds repeat exactly.
type workload interface {
	jobs() []campaign.Job
	// poolBuilds is the number of rigs the workload's pools have built.
	poolBuilds() int64
	close()
}

var workloadNames = []string{"agreement", "separation", "bg-reduction", "netconv"}

// newWorkload builds the named workload's inputs from seed and its rigs.
func newWorkload(name string, seed int64, h *harness) (workload, error) {
	switch name {
	case "agreement":
		return newAgreement(h, agreementSpecs(seed, agreementRuns))
	case "separation":
		return newSeparation(h, separationSpecs(seed))
	case "bg-reduction":
		return newBGReduction(h, bgSpecs(seed, bgRuns))
	case "netconv":
		return newNetconv(h, netconvRuns)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// inputRand is the generator every workload draws its inputs from.
func inputRand(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x70657266))
}

// ---------------------------------------------------------------------------
// agreement: the Theorem 24 solver decides in its matching system.

type agreementCell struct{ t, k, n int }

var agreementCells = []agreementCell{{1, 1, 3}, {2, 2, 4}, {3, 2, 5}}

const (
	agreementRuns       = 2400      // runs per round, spread evenly over the cells
	agreementCrashSteps = 200       // crash-after steps are drawn from [0, this)
	agreementBound      = 4         // Definition 1 bound of the schedule source
	agreementCheckEvery = 200       // steps between decision polls
	agreementMaxSteps   = 4_000_000 // Solve's default budget
)

// agreementSpec is one run's input: a cell, a crash pattern of at most t
// processes and a schedule seed. Cells and crash counts take turns, so every
// seed gives the same mix; the seed draws who crashes, when, and the
// schedule.
type agreementSpec struct {
	cell    int
	crashes map[procset.ID]int
	seed    int64
}

func agreementSpecs(seed int64, count int) []agreementSpec {
	rng := inputRand(seed)
	specs := make([]agreementSpec, count)
	for i := range specs {
		c := i % len(agreementCells)
		cell := agreementCells[c]
		crashes := map[procset.ID]int{}
		for _, p := range rng.Perm(cell.n)[:i/len(agreementCells)%(cell.t+1)] {
			crashes[procset.ID(p+1)] = rng.IntN(agreementCrashSteps)
		}
		specs[i] = agreementSpec{cell: c, crashes: crashes, seed: rng.Int64()}
	}
	return specs
}

// agreementRig is one pooled solver: Solve's construction, reset between runs.
type agreementRig struct {
	problem   core.Problem
	sys       core.SystemID
	proposals map[procset.ID]any
	ag        *kset.Agreement
	runner    *sim.Runner
}

func newAgreementRig(cell agreementCell) (*agreementRig, error) {
	p := core.Problem{T: cell.t, K: cell.k, N: cell.n}
	sys := p.MatchingSystem()
	cfg, err := p.AgreementConfig(sys)
	if err != nil {
		return nil, err
	}
	proposals := make(map[procset.ID]any, p.N)
	for q := 1; q <= p.N; q++ {
		proposals[procset.ID(q)] = fmt.Sprintf("v%d", q)
	}
	ag, err := kset.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(sim.Config{N: p.N, Machine: ag.Machine(func(q procset.ID) any { return proposals[q] })})
	if err != nil {
		return nil, err
	}
	return &agreementRig{problem: p, sys: sys, proposals: proposals, ag: ag, runner: runner}, nil
}

// agreementRecord is what one run reports, in the terms of Solve's result.
type agreementRecord struct {
	Decided   bool
	Steps     int
	Distinct  int
	Decisions map[procset.ID]any
	OK        bool
}

type agreementWL struct {
	h     *harness
	pools []*campaign.Pool[*agreementRig]
	round []campaign.Job
}

func newAgreement(h *harness, specs []agreementSpec) (*agreementWL, error) {
	w := &agreementWL{h: h}
	for _, cell := range agreementCells {
		w.pools = append(w.pools, campaign.NewPool(func() (*agreementRig, error) {
			rig, err := newAgreementRig(cell)
			if err == nil {
				h.runners = append(h.runners, rig.runner)
			}
			return rig, err
		}))
	}
	// One job per run: each stands for one Solve call.
	for i := range specs {
		spec := &specs[i]
		w.round = append(w.round, campaign.Job{Name: "agreement", Run: func(context.Context, int64) (campaign.Outcome, error) {
			sp := h.tr.begin(lJob)
			defer h.tr.end(sp)
			pool := w.pools[spec.cell]
			rig, err := pool.Get()
			if err != nil {
				return campaign.Outcome{}, err
			}
			defer pool.Put(rig)
			rec, err := w.one(rig, spec)
			if err != nil {
				return campaign.Outcome{}, err
			}
			verdict := "decided"
			if !rec.OK {
				verdict = "failed"
			}
			return campaign.Outcome{Verdict: verdict, Ok: rec.OK, Steps: rec.Steps, Tallies: map[string]int{"runs": 1}}, nil
		}})
	}
	return w, nil
}

// one runs spec on rig the way Solve does, on a pooled rig.
func (w *agreementWL) one(rig *agreementRig, spec *agreementSpec) (agreementRecord, error) {
	h := w.h
	p := rig.problem
	tok := h.beginRun()
	sp := h.tr.begin(lSchedBuild)
	src, _, err := sched.System(p.N, rig.sys.I, rig.sys.J, agreementBound, spec.seed, spec.crashes)
	h.tr.end(sp)
	if err != nil {
		return agreementRecord{}, err
	}
	h.c.Sources++
	sp = h.tr.begin(lKsetReset)
	rig.ag.Reset()
	h.tr.end(sp)
	sp = h.tr.begin(lSimReset)
	err = rig.runner.Reset()
	h.tr.end(sp)
	if err != nil {
		return agreementRecord{}, err
	}
	correct := src.Correct()
	stop := func() bool {
		sp := h.tr.begin(lKsetPoll)
		done := correct.SubsetOf(rig.ag.DecidedSet())
		h.tr.end(sp)
		return done
	}
	sp = h.tr.begin(lSimRun)
	res := rig.runner.Run(h.source(src), agreementMaxSteps, agreementCheckEvery, stop)
	h.tr.end(sp)

	sp = h.tr.begin(lCheck)
	rec := agreementRecord{Decided: res.Stopped, Steps: rig.runner.Steps(), Distinct: rig.ag.DistinctDecisions(), Decisions: decisionsOf(rig.ag, p.N)}
	run := check.AgreementRun{N: p.N, K: p.K, T: p.T, Proposals: rig.proposals, Decisions: rec.Decisions, Correct: correct}
	ok, why := classifyAgreement(run, rec.Decided)
	h.tr.end(sp)
	rec.OK = ok
	if rec.Decided {
		h.decided(rec.Steps)
	}
	h.endRun(tok, rig.runner, ok, why)
	return rec, nil
}

func (w *agreementWL) poolBuilds() int64 { return sumMisses(w.pools) }

func (w *agreementWL) close() {
	for _, p := range w.pools {
		p.Drain(func(rig *agreementRig) { rig.runner.Close() })
	}
}

// ---------------------------------------------------------------------------
// separation: the parking adversary starves the solver at k = t = n/2.

var separationSizes = []int{4, 6}

const (
	separationSteps      = 40_000 // step horizon of a run
	separationCheckEvery = 500    // steps between decision polls
)

// separationSpec is one run's input: a system size and a crashed-from-start
// pattern from that size's population.
type separationSpec struct {
	size    int // index into separationSizes
	crashed procset.Set
}

// separationPopulation is the crashed-from-start population of the
// adversarial campaign: the failure-free pattern plus every crash set that
// leaves more than k live processes, in canonical subset order.
func separationPopulation(n int) []procset.Set {
	k, t := n/2, n/2
	patterns := []procset.Set{procset.EmptySet}
	for s := 1; s <= min(t, n-k-1); s++ {
		patterns = append(patterns, procset.KSubsets(n, s)...)
	}
	return patterns
}

// separationSpecs is one round: every pattern of both sizes' populations
// once, in an order drawn from the seed. The patterns' run times differ by
// up to 2.5×, so a seed-drawn mix of patterns would make the run-time
// percentiles follow how often the slowest patterns were drawn; with the
// whole population every seed runs the same mix, and the seed sets only the
// order.
func separationSpecs(seed int64) []separationSpec {
	var specs []separationSpec
	for s, n := range separationSizes {
		for _, crashed := range separationPopulation(n) {
			specs = append(specs, separationSpec{size: s, crashed: crashed})
		}
	}
	rng := inputRand(seed)
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

type separationRig struct {
	cfg       kset.Config
	proposals map[procset.ID]any
	ag        *kset.Agreement
	runner    *sim.Runner
	adv       *adversary.Adversary
	traced    *tracedDirector
}

func newSeparationRig(h *harness, n int) (*separationRig, error) {
	cfg := kset.Config{N: n, K: n / 2, T: n / 2}
	ag, err := kset.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(sim.Config{N: n, Machine: ag.Machine(func(p procset.ID) any { return int(p) * 10 })})
	if err != nil {
		return nil, err
	}
	adv, err := adversary.New(adversary.Config{N: n})
	if err != nil {
		runner.Close()
		return nil, err
	}
	proposals := make(map[procset.ID]any, n)
	for p := 1; p <= n; p++ {
		proposals[procset.ID(p)] = p * 10
	}
	return &separationRig{cfg: cfg, proposals: proposals, ag: ag, runner: runner, adv: adv, traced: &tracedDirector{adv: adv, h: h}}, nil
}

// tracedDirector hands the adversary's decisions to the directed loop,
// counting every call and timing a 1-in-sampleEvery sample.
type tracedDirector struct {
	adv *adversary.Adversary
	h   *harness
}

func (d *tracedDirector) Next() procset.ID {
	if !d.h.dirNext.tick() {
		return d.adv.Next()
	}
	t0, t1 := time.Now(), time.Now()
	p := d.adv.Next()
	d.h.dirNext.add(t0, t1, time.Now())
	return p
}

func (d *tracedDirector) OnWrite(slot sim.RegID, proc procset.ID, value any) {
	if !d.h.dirWrite.tick() {
		d.adv.OnWrite(slot, proc, value)
		return
	}
	t0, t1 := time.Now(), time.Now()
	d.adv.OnWrite(slot, proc, value)
	d.h.dirWrite.add(t0, t1, time.Now())
}

type separationWL struct {
	h     *harness
	pools []*campaign.Pool[*separationRig]
	round []campaign.Job
}

func newSeparation(h *harness, specs []separationSpec) (*separationWL, error) {
	w := &separationWL{h: h}
	for _, n := range separationSizes {
		w.pools = append(w.pools, campaign.NewPool(func() (*separationRig, error) {
			rig, err := newSeparationRig(h, n)
			if err == nil {
				h.runners = append(h.runners, rig.runner)
			}
			return rig, err
		}))
	}
	// One job per run, as the adversarial campaign runs campaigns of at most
	// 64 runs.
	for i := range specs {
		spec := specs[i]
		w.round = append(w.round, campaign.Job{Name: "separation", Run: func(context.Context, int64) (campaign.Outcome, error) {
			sp := h.tr.begin(lJob)
			defer h.tr.end(sp)
			pool := w.pools[spec.size]
			rig, err := pool.Get()
			if err != nil {
				return campaign.Outcome{}, err
			}
			defer pool.Put(rig)
			verdict, ok, err := w.one(rig, spec.crashed)
			if err != nil {
				return campaign.Outcome{}, err
			}
			return campaign.Outcome{Verdict: verdict, Ok: ok, Steps: 1, Tallies: map[string]int{verdict: 1, "runs": 1}}, nil
		}})
	}
	return w, nil
}

// one drives a single adversarial run to the horizon and returns its
// verdict: "starved" (expected), "decided" or "violation".
func (w *separationWL) one(rig *separationRig, crashed procset.Set) (string, bool, error) {
	h := w.h
	tok := h.beginRun()
	sp := h.tr.begin(lKsetReset)
	rig.ag.Reset()
	h.tr.end(sp)
	sp = h.tr.begin(lSimReset)
	err := rig.runner.Reset()
	h.tr.end(sp)
	if err != nil {
		return "", false, err
	}
	sp = h.tr.begin(lAdvReset)
	err = rig.adv.ResetCrashed(crashed)
	h.tr.end(sp)
	if err != nil {
		return "", false, err
	}
	stop := func() bool {
		sp := h.tr.begin(lKsetPoll)
		done := !rig.ag.DecidedSet().IsEmpty()
		h.tr.end(sp)
		return done
	}
	var decided bool
	sp = h.tr.begin(lSimRun)
	if h.tr == nil {
		_, decided = rig.adv.DriveDirected(rig.runner, separationSteps, separationCheckEvery, stop)
	} else {
		// A zero-step drive binds the adversary's register table to this
		// runner, which is all DriveDirected adds to the directed loop.
		rig.adv.DriveDirected(rig.runner, 0, separationCheckEvery, nil)
		decided = rig.runner.RunDirected(rig.traced, separationSteps, separationCheckEvery, stop).Stopped
	}
	h.tr.end(sp)

	sp = h.tr.begin(lCheck)
	run := check.AgreementRun{N: rig.cfg.N, K: rig.cfg.K, T: rig.cfg.T, Proposals: rig.proposals, Decisions: decisionsOf(rig.ag, rig.cfg.N)}
	verdict, ok := classifySeparation(decided, run.SafetyViolations())
	h.tr.end(sp)
	if decided {
		h.decided(rig.runner.Steps())
	}
	h.endRun(tok, rig.runner, ok, verdict)
	return verdict, ok, nil
}

func decisionsOf(ag *kset.Agreement, n int) map[procset.ID]any {
	out := map[procset.ID]any{}
	for p := 1; p <= n; p++ {
		if v, ok := ag.Decision(procset.ID(p)); ok {
			out[procset.ID(p)] = v
		}
	}
	return out
}

func (w *separationWL) poolBuilds() int64 { return sumMisses(w.pools) }

func (w *separationWL) close() {
	for _, p := range w.pools {
		p.Drain(func(rig *separationRig) { rig.runner.Close() })
	}
}

// ---------------------------------------------------------------------------
// bg-reduction: the fused BG simulation on fixed-length random schedules.

const (
	bgSimulators = 3
	bgSteps      = 2_000 // schedule length
	bgRuns       = 512   // runs per round
	bgBatch      = 64    // runs per campaign job, as the fuzz campaign batches
)

// bgSpec is one run's input: a schedule seed and a crash pattern of the
// simulators (each crashed simulator stops after a drawn number of steps).
// Crash counts take turns, so every seed gives the same mix.
type bgSpec struct {
	seed    int64
	crashes map[procset.ID]int
}

func bgSpecs(seed int64, count int) []bgSpec {
	rng := inputRand(seed)
	specs := make([]bgSpec, count)
	for i := range specs {
		crashes := map[procset.ID]int{}
		for _, p := range rng.Perm(bgSimulators)[:i%bgSimulators] {
			crashes[procset.ID(p+1)] = rng.IntN(bgSteps / 2)
		}
		specs[i] = bgSpec{seed: rng.Int64(), crashes: crashes}
	}
	return specs
}

type bgWL struct {
	h     *harness
	pool  *campaign.Pool[*explore.Run]
	round []campaign.Job
}

func newBGReduction(h *harness, specs []bgSpec) (*bgWL, error) {
	build, err := explore.PooledTargetBuilder("bg", bgSimulators)
	if err != nil {
		return nil, err
	}
	w := &bgWL{h: h}
	w.pool = campaign.NewPool(func() (*explore.Run, error) {
		run, err := build()
		if err == nil {
			h.runners = append(h.runners, run.Runner)
		}
		return run, err
	})
	for lo := 0; lo < len(specs); lo += bgBatch {
		batch := specs[lo:min(lo+bgBatch, len(specs))]
		w.round = append(w.round, campaign.Job{Name: "bg-reduction", Run: func(context.Context, int64) (campaign.Outcome, error) {
			sp := h.tr.begin(lJob)
			defer h.tr.end(sp)
			run, err := w.pool.Get()
			if err != nil {
				return campaign.Outcome{}, err
			}
			defer w.pool.Put(run)
			verdict, allOK := "ok", true
			for i := range batch {
				ok, err := w.one(run, &batch[i])
				if err != nil {
					return campaign.Outcome{}, err
				}
				if !ok {
					verdict, allOK = "violation", false
				}
			}
			return campaign.Outcome{Verdict: verdict, Ok: allOK, Steps: len(batch), Tallies: map[string]int{"runs": len(batch)}}, nil
		}})
	}
	return w, nil
}

// one materializes the spec's schedule, runs it on the pooled target and
// passes the outcome through the target's safety check.
func (w *bgWL) one(run *explore.Run, spec *bgSpec) (bool, error) {
	h := w.h
	tok := h.beginRun()
	sp := h.tr.begin(lSchedBuild)
	src, err := sched.Random(bgSimulators, spec.seed, spec.crashes)
	h.tr.end(sp)
	if err != nil {
		return false, err
	}
	h.c.Sources++
	// The whole schedule is one block: sched.Take fills it in one call.
	sp = h.tr.begin(lSchedNext)
	s := sched.Take(src, bgSteps)
	h.tr.end(sp)
	if h.tr != nil {
		h.schedSteps += int64(len(s))
	}
	sp = h.tr.begin(lBGReset)
	run.Reset()
	h.tr.end(sp)
	sp = h.tr.begin(lSimReset)
	err = run.Runner.Reset()
	h.tr.end(sp)
	if err != nil {
		return false, err
	}
	sp = h.tr.begin(lSimRun)
	run.Runner.RunSchedule(s)
	h.tr.end(sp)
	sp = h.tr.begin(lCheck)
	ok, why := classifyBG(run.Check())
	h.tr.end(sp)
	for p := 1; p <= bgSimulators; p++ {
		if run.Runner.Halted(procset.ID(p)) {
			h.c.Halted++
		}
	}
	h.endRun(tok, run.Runner, ok, why)
	return ok, nil
}

func (w *bgWL) poolBuilds() int64 { return w.pool.Stats().Misses }

func (w *bgWL) close() { w.pool.Drain(func(run *explore.Run) { run.Runner.Close() }) }

// ---------------------------------------------------------------------------
// netconv: the heartbeat Ω detector over graded link matrices.

const (
	netN        = 4
	netDelta    = 2
	netSteps    = 20_000
	netGST      = netSteps / 4
	netProbe    = netDelta + 3*netN*(netN-1)
	netconvRuns = 8 // runs per matrix per round
)

type netconvRig struct {
	matrix string
	net    *msgnet.Net
	hb     *msgnet.Heartbeat
	runner *sim.Runner
	mon    *obs.LinkMonitor
}

func newNetconvRig(h *harness, matrix string) (*netconvRig, error) {
	def, links, err := msgnet.BuildMatrix(matrix, netN, netDelta, netGST)
	if err != nil {
		return nil, err
	}
	mon, err := obs.NewLinkMonitor(netN, netProbe)
	if err != nil {
		return nil, err
	}
	onDeliver := mon.Observe
	if h.tr != nil {
		onDeliver = func(from, to procset.ID, sent, delivered int) {
			if !h.deliver.tick() {
				mon.Observe(from, to, sent, delivered)
				return
			}
			t0, t1 := time.Now(), time.Now()
			mon.Observe(from, to, sent, delivered)
			h.deliver.add(t0, t1, time.Now())
		}
	}
	net, err := msgnet.New(msgnet.Config{N: netN, Default: def, Links: links, OnDeliver: onDeliver})
	if err != nil {
		return nil, err
	}
	hb, err := msgnet.NewHeartbeat(msgnet.HeartbeatConfig{N: netN})
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(sim.Config{N: netN, Machine: hb.Machine, Network: net})
	if err != nil {
		return nil, err
	}
	return &netconvRig{matrix: matrix, net: net, hb: hb, runner: runner, mon: mon}, nil
}

type netconvWL struct {
	h     *harness
	pools []*campaign.Pool[*netconvRig]
	round []campaign.Job
}

// newNetconv builds one job per link matrix; the campaign seed of a round
// fixes every run's schedule and delay seeds.
func newNetconv(h *harness, runs int) (*netconvWL, error) {
	w := &netconvWL{h: h}
	for _, matrix := range msgnet.MatrixNames() {
		pool := campaign.NewPool(func() (*netconvRig, error) {
			rig, err := newNetconvRig(h, matrix)
			if err == nil {
				h.runners = append(h.runners, rig.runner)
			}
			return rig, err
		})
		w.pools = append(w.pools, pool)
		w.round = append(w.round, campaign.Job{Name: "netconv[" + matrix + "]", Run: func(_ context.Context, jobSeed int64) (campaign.Outcome, error) {
			sp := h.tr.begin(lJob)
			defer h.tr.end(sp)
			rig, err := pool.Get()
			if err != nil {
				return campaign.Outcome{}, err
			}
			defer pool.Put(rig)
			tallies := map[string]int{}
			converged, allOK := 0, true
			for i := 0; i < runs; i++ {
				rec, err := w.one(rig, campaign.SeedFor(jobSeed, i))
				if err != nil {
					return campaign.Outcome{}, err
				}
				allOK = allOK && rec.OK
				if rec.Converged {
					converged++
					tallies["cell["+matrix+"]:converged"]++
					tallies[fmt.Sprintf("leader[%s]:p%d", matrix, rec.Leader)]++
				} else {
					tallies["cell["+matrix+"]:split"]++
				}
				tallies["grades["+matrix+"]:"+rec.Shape]++
				if i == 0 {
					tallies["sample["+matrix+"]:"+rec.Full] = 1
				}
			}
			tallies["runs"] = runs
			verdict := "converged"
			if converged < runs {
				verdict = fmt.Sprintf("converged %d/%d", converged, runs)
			}
			return campaign.Outcome{Verdict: verdict, Ok: allOK, Steps: runs, Tallies: tallies}, nil
		}})
	}
	return w, nil
}

// netconvRecord is one run's outcome in the terms of the netconv campaign.
type netconvRecord struct {
	Converged   bool
	Leader      procset.ID
	Shape, Full string
	OK          bool
}

// one executes a single sample: reseeded network, reset monitor and runner,
// a fresh random schedule, then the agreement and grade readouts.
func (w *netconvWL) one(rig *netconvRig, seed int64) (netconvRecord, error) {
	h := w.h
	tok := h.beginRun()
	sp := h.tr.begin(lNetReseed)
	rig.net.Reseed(seed)
	h.tr.end(sp)
	sp = h.tr.begin(lObsReset)
	rig.mon.Reset()
	h.tr.end(sp)
	sp = h.tr.begin(lSimReset)
	err := rig.runner.Reset()
	h.tr.end(sp)
	if err != nil {
		return netconvRecord{}, err
	}
	sp = h.tr.begin(lSchedBuild)
	src, err := sched.Random(netN, seed, nil)
	h.tr.end(sp)
	if err != nil {
		return netconvRecord{}, err
	}
	h.c.Sources++
	sp = h.tr.begin(lSimRun)
	rig.runner.Run(h.source(src), netSteps, 0, nil)
	h.tr.end(sp)

	var rec netconvRecord
	sp = h.tr.begin(lCheck)
	rec.Leader, rec.Converged = rig.hb.Agree(procset.FullSet(netN))
	var why string
	rec.OK, why = classifyNetconv(rig.matrix, rec.Converged)
	h.tr.end(sp)
	sp = h.tr.begin(lObsSnapshot)
	statuses := rig.mon.Snapshot()
	rec.Shape, rec.Full = gradeShape(statuses), obs.FormatLinkGrades(statuses)
	h.tr.end(sp)

	st := rig.net.Stats()
	h.c.Sent += st.Sent
	h.c.Delivered += st.Delivered
	h.c.InFlightMax = max(h.c.InFlightMax, st.InFlight)
	h.endRun(tok, rig.runner, rec.OK, why)
	return rec, nil
}

// gradeShape renders the per-link grades without their GST estimates, the
// netconv campaign's tally key.
func gradeShape(statuses []obs.LinkStatus) string {
	var b strings.Builder
	for i, s := range statuses {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d→%d:%s", int(s.From), int(s.To), s.Grade)
	}
	return b.String()
}

func (w *netconvWL) poolBuilds() int64 { return sumMisses(w.pools) }

func (w *netconvWL) close() {
	for _, p := range w.pools {
		p.Drain(func(rig *netconvRig) { rig.runner.Close() })
	}
}

func (w *agreementWL) jobs() []campaign.Job  { return w.round }
func (w *separationWL) jobs() []campaign.Job { return w.round }
func (w *bgWL) jobs() []campaign.Job         { return w.round }
func (w *netconvWL) jobs() []campaign.Job    { return w.round }

func sumMisses[E any](pools []*campaign.Pool[E]) int64 {
	var n int64
	for _, p := range pools {
		n += p.Stats().Misses
	}
	return n
}
