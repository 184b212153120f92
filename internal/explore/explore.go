// Package explore provides systematic schedule exploration for safety
// properties: exhaustive enumeration of all schedules up to a depth bound
// (feasible for 2–3 processes — the configurations the paper's impossibility
// arguments care about most), and high-volume seeded random fuzzing for
// larger systems.
//
// Every protocol the explorer checks is one entry of the Target table
// (targets.go): its coroutine reference, its direct-dispatch machine form,
// one safety check and one progress predicate. All campaigns run on one
// pooled path — a reusable Run per campaign worker, replayed via
// Runner.Reset — and either form of a target plugs into it: the machine
// form in production, the coroutine reference through an adapter whose
// Reset rebuilds a fresh run (the form the equivalence and mutation tests
// are written against).
//
// The package's own tests double as mutation tests: deliberately broken
// protocol variants must be caught, which validates that the explorer (and
// the property checkers it applies) can actually see violations.
package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Builder creates one fresh coroutine run: the per-process algorithm (with
// fresh captured state) and a check applied after the schedule has been
// executed. check returns an error describing the violation, if any.
//
// Builders are called from multiple worker goroutines concurrently; each
// call must return state shared with nothing outside that one run.
type Builder func() (algo func(procset.ID) sim.Algorithm, check func() error)

// Run is one reusable run instance for the pooled execution path: a runner
// plus the hooks that restore and inspect its harness-side state. Between
// schedules the explorer calls Reset (harness state) and Runner.Reset
// (simulator state), so a recycled Run replays exactly like a fresh one.
type Run struct {
	// Runner executes the schedules. The explorer owns stepping and Reset;
	// the builder owns Close (via the pool's drain).
	Runner *sim.Runner
	// Reset restores the harness-side result slots before each schedule.
	// It may also replace Runner (the coroutine adapter does), so read
	// Runner after calling it. May be nil when the check reads only
	// simulator state.
	Reset func()
	// Check inspects the outcome after a schedule, returning an error
	// describing the violation, if any.
	Check func() error
}

// PooledBuilder creates a reusable Run. The campaign pool invokes it at
// most once per concurrently running worker; each Run then serves many
// schedules.
type PooledBuilder func() (*Run, error)

// Violation describes a schedule on which the check failed.
type Violation struct {
	Schedule sched.Schedule
	Err      error
	// scheduleStr preserves the schedule's rendering across a JSON round
	// trip (checkpoint journals, the worker wire protocol); the structured
	// Schedule does not survive marshaling.
	scheduleStr string
	// Flight, when non-empty, is the formatted tail of the failing run from
	// an attached flight recorder (see internal/obs): the last K executed
	// steps with process, op kind, and register resolved. Directed runs have
	// no replayable Schedule, so this is their failure context.
	Flight string
	// Trace, when non-empty, is the corrupting-write trace of a Byzantine
	// run: which writes were mutated, by whom, into what (see
	// adversary.Byzantine.FormatTrace).
	Trace string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("explore: violated on schedule %v: %v", v.scheduleText(), v.Err)
}

func (v *Violation) scheduleText() string {
	if len(v.Schedule) > 0 || v.scheduleStr == "" {
		return v.Schedule.String()
	}
	return v.scheduleStr
}

// MarshalJSON renders the violation for JSONL emission; the wrapped error
// must be flattened to its message, since marshaling a bare error interface
// yields an empty object.
func (v *Violation) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Schedule string `json:"schedule"`
		Err      string `json:"err"`
		Flight   string `json:"flight,omitempty"`
		Trace    string `json:"trace,omitempty"`
	}{v.scheduleText(), v.Err.Error(), v.Flight, v.Trace})
}

// UnmarshalJSON rebuilds a violation from its emitted form, so a violation
// recovered from a checkpoint journal (or the worker wire protocol) still
// reports as one. The schedule comes back as text only and the error as its
// message.
func (v *Violation) UnmarshalJSON(data []byte) error {
	var w struct {
		Schedule string `json:"schedule"`
		Err      string `json:"err"`
		Flight   string `json:"flight,omitempty"`
		Trace    string `json:"trace,omitempty"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*v = Violation{Err: errors.New(w.Err), Flight: w.Flight, Trace: w.Trace, scheduleStr: w.Schedule}
	return nil
}

// referenceBuilder adapts a coroutine Builder to the pooled path: the Run's
// Reset closes the previous runner and rebuilds from a fresh build() call,
// so every schedule executes exactly as on a fresh coroutine run.
func referenceBuilder(n int, build Builder) PooledBuilder {
	return func() (*Run, error) {
		run := &Run{}
		var check func() error
		rebuild := func() error {
			algo, c := build()
			runner, err := sim.NewRunner(sim.Config{N: n, Algorithm: algo})
			if err != nil {
				return err
			}
			if run.Runner != nil {
				run.Runner.Close()
			}
			run.Runner, check = runner, c
			return nil
		}
		if err := rebuild(); err != nil {
			return nil, err
		}
		run.Reset = func() {
			if err := rebuild(); err != nil {
				panic(err) // the first build with the same n succeeded
			}
		}
		run.Check = func() error { return check() }
		return run, nil
	}
}

// runPooled executes one finite schedule on a recycled Run. A panic inside
// the run is re-raised with the flight recorder's tail attached (when one is
// enabled), so the campaign engine's panic isolation captures the last
// executed steps alongside the stack.
func runPooled(run *Run, schedule sched.Schedule) error {
	defer func() {
		if rec := recover(); rec != nil {
			if dump := obs.FlightDump(run.Runner); dump != "" {
				panic(fmt.Sprintf("%v\nflight recorder tail:\n%s", rec, dump))
			}
			panic(rec)
		}
	}()
	if run.Reset != nil {
		run.Reset()
	}
	if err := run.Runner.Reset(); err != nil {
		return err
	}
	run.Runner.RunSchedule(schedule)
	if err := run.Check(); err != nil {
		return &Violation{Schedule: schedule, Err: err}
	}
	return nil
}

// directedRunner builds h's machine form on a runner for a directed
// campaign rig; flightK > 0 attaches a flight recorder with a ring of that
// many steps, so a failing run can report its tail (directed runs have no
// replayable schedule).
func (h *harness) directedRunner(n, flightK int, noRecycle bool) (*sim.Runner, error) {
	runner, err := sim.NewRunner(sim.Config{N: n, NoRecycle: noRecycle, Machine: h.machine})
	if err != nil {
		return nil, err
	}
	if flightK > 0 {
		runner.SetFlightRecorder(sim.NewFlightRecorder(flightK))
	}
	return runner, nil
}

// dumpFlightOnPanic is deferred by directed campaign jobs: a panicking run
// never reaches the violation path, so the recorded tail goes to stderr
// before the panic unwinds and the crash context is lost with the rig.
func dumpFlightOnPanic(runner *sim.Runner, what string) {
	if rec := recover(); rec != nil {
		if dump := obs.FlightDump(runner); dump != "" {
			fmt.Fprintf(os.Stderr, "explore: panic in %s; last %d steps:\n%s", what, runner.FlightRecorder().Len(), dump)
		}
		panic(rec)
	}
}

// batchSize splits total runs into campaign jobs: small enough to shard
// across workers, large enough that per-job overhead stays negligible.
func batchSize(total int) int {
	switch {
	case total <= 64:
		return 1
	case total <= 4096:
		return 64
	default:
		return 256
	}
}

// runCampaign builds one job per batch of [0,total) and runs them on the
// engine, returning the report and the violation of the smallest run index
// found, if any. Each job takes one pooled Run and replays its whole batch
// on it, stopping at the first violation; the pooled runners are closed
// when the campaign finishes.
func runCampaign(ctx context.Context, workers, total int, nth func(int) sched.Schedule, build PooledBuilder, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	pool := campaign.NewPool(func() (*Run, error) { return build() })
	defer pool.Drain(func(r *Run) { r.Runner.Close() })
	batch := batchSize(total)
	var jobs []campaign.Job
	for lo := 0; lo < total; lo += batch {
		lo, hi := lo, lo+batch
		if hi > total {
			hi = total
		}
		jobs = append(jobs, campaign.Job{
			Name: fmt.Sprintf("batch[%d,%d)", lo, hi),
			Run: func(ctx context.Context, _ int64) (campaign.Outcome, error) {
				run, err := pool.Get()
				if err != nil {
					return campaign.Outcome{}, err
				}
				defer pool.Put(run)
				runs := 0
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						break
					}
					runs++
					if err := runPooled(run, nth(i)); err != nil {
						var v *Violation
						if errors.As(err, &v) {
							return campaign.Outcome{
								Verdict: "violation",
								Ok:      false,
								Steps:   runs,
								Tallies: map[string]int{"runs": runs},
								Detail:  v,
							}, nil
						}
						return campaign.Outcome{}, err
					}
				}
				return campaign.Outcome{
					Verdict: "ok",
					Ok:      true,
					Steps:   runs,
					Tallies: map[string]int{"runs": runs},
				}, nil
			},
		})
	}
	rep, err := campaign.Run(ctx, campaign.Config{Workers: workers, StopOnFail: true, OnResult: onResult}, jobs)
	if err != nil {
		return rep, 0, err
	}
	runs := rep.Summary.Tallies["runs"]
	if len(rep.Failures) > 0 {
		if v, ok := campaign.DecodeDetail[*Violation](rep.Failures[0].Detail); ok && v != nil {
			return rep, runs, v
		}
	}
	return rep, runs, nil
}

// exhaustiveSpace validates the (n, depth) bounds and returns the run count
// and the fixed schedule enumeration (run r's step i is digit i of r in
// base n), so which schedules run is independent of sharding and of the
// execution path.
func exhaustiveSpace(n, depth int) (int, func(int) sched.Schedule, error) {
	if n < 1 || n > 4 {
		return 0, nil, fmt.Errorf("explore: Exhaustive supports 1 ≤ n ≤ 4, got %d", n)
	}
	if depth < 1 || depth > 24 {
		return 0, nil, fmt.Errorf("explore: depth %d out of range [1,24]", depth)
	}
	total := 1
	for i := 0; i < depth; i++ {
		total *= n
	}
	nth := func(r int) sched.Schedule {
		schedule := make(sched.Schedule, depth)
		for i := range schedule {
			schedule[i] = procset.ID(r%n + 1)
			r /= n
		}
		return schedule
	}
	return total, nth, nil
}

// ExhaustivePooledCampaign shards the exhaustive enumeration across
// workers (0 means GOMAXPROCS), each running its schedules on a reusable
// Run from build. It returns the number of runs executed; when a violation
// exists the reported one is the violation of the smallest run index found
// before cancellation, which may differ from the sequential first under
// parallelism.
func ExhaustivePooledCampaign(ctx context.Context, workers, n, depth int, build PooledBuilder, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	total, nth, err := exhaustiveSpace(n, depth)
	if err != nil {
		return nil, 0, err
	}
	return runCampaign(ctx, workers, total, nth, build, onResult)
}

// fuzzSpace validates the generators and returns the run count and the
// schedule enumeration: run index r covers schedule seed base+r/len(patterns)
// with crash pattern r%len(patterns), so coverage is independent of sharding
// and of the execution form.
func fuzzSpace(n, steps, seeds int, base int64, crashPatterns []map[procset.ID]int) (int, func(int) sched.Schedule, error) {
	if len(crashPatterns) == 0 {
		crashPatterns = []map[procset.ID]int{nil}
	}
	// Validate once up front so job workers cannot hit generator errors.
	if _, err := sched.Random(n, base, nil); err != nil {
		return 0, nil, err
	}
	for _, crashes := range crashPatterns {
		if _, err := sched.Random(n, base, crashes); err != nil {
			return 0, nil, err
		}
	}
	nth := func(r int) sched.Schedule {
		seed := base + int64(r/len(crashPatterns))
		crashes := crashPatterns[r%len(crashPatterns)]
		src, err := sched.Random(n, seed, crashes)
		if err != nil {
			// n and every crash pattern were validated above, so the
			// generator cannot fail here.
			panic(err)
		}
		return sched.Take(src, steps)
	}
	return seeds * len(crashPatterns), nth, nil
}

// FuzzPooledCampaign shards seeded random fuzzing across workers (0 means
// GOMAXPROCS): seeds schedules of steps steps from base seed base, each run
// under every crash pattern (nil for failure-free only), on reusable Runs
// from build. It returns the number of runs executed and the first
// violation, if any.
func FuzzPooledCampaign(ctx context.Context, workers, n, steps, seeds int, base int64, crashPatterns []map[procset.ID]int, build PooledBuilder, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	total, nth, err := fuzzSpace(n, steps, seeds, base, crashPatterns)
	if err != nil {
		return nil, 0, err
	}
	return runCampaign(ctx, workers, total, nth, build, onResult)
}
