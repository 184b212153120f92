package kset

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// agreementSnapshot is everything observable about one agreement run: the
// StepInfo stream, the decide events in delivery order, and the final
// harness state.
type agreementSnapshot struct {
	trace     []sim.StepInfo
	events    []decideEvent
	decisions []any
	distinct  int
	decided   procset.Set
}

type decideEvent struct {
	proc procset.ID
	val  any
}

func proposals(p procset.ID) any { return fmt.Sprintf("v%d", p) }

func snapshotAgreement(t *testing.T, cfg Config, s sched.Schedule, machineMode bool) agreementSnapshot {
	t.Helper()
	var snap agreementSnapshot
	ag, err := New(cfg, func(p procset.ID, v any) {
		snap.events = append(snap.events, decideEvent{proc: p, val: v})
	})
	if err != nil {
		t.Fatal(err)
	}
	scfg := sim.Config{N: cfg.N, Observer: func(info sim.StepInfo) { snap.trace = append(snap.trace, info) }}
	if machineMode {
		scfg.Machine = ag.Machine(proposals)
	} else {
		scfg.Algorithm = ag.Algorithm(proposals)
	}
	r, err := sim.NewRunner(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(s)
	snap.harvest(ag)
	return snap
}

// harvest records the final harness state of a completed run.
func (snap *agreementSnapshot) harvest(ag *Agreement) {
	for p := 1; p <= ag.cfg.N; p++ {
		v, _ := ag.Decision(procset.ID(p))
		snap.decisions = append(snap.decisions, v)
	}
	snap.distinct = ag.DistinctDecisions()
	snap.decided = ag.DecidedSet()
}

func sameAgreementSnapshot(t *testing.T, label string, a, b agreementSnapshot) {
	t.Helper()
	if len(a.trace) != len(b.trace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("%s: StepInfo streams diverge at step %d:\n  %+v\n  %+v", label, i, a.trace[i], b.trace[i])
		}
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("%s: decide event counts differ: %d vs %d", label, len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("%s: decide events diverge at %d: %+v vs %+v", label, i, a.events[i], b.events[i])
		}
	}
	for p := range a.decisions {
		if a.decisions[p] != b.decisions[p] {
			t.Fatalf("%s: decision of p%d differs: %v vs %v", label, p+1, a.decisions[p], b.decisions[p])
		}
	}
	if a.distinct != b.distinct || a.decided != b.decided {
		t.Fatalf("%s: harness state differs: (%d,%v) vs (%d,%v)", label,
			a.distinct, a.decided, b.distinct, b.decided)
	}
}

// agreementCases cover both algorithms and both engines, including the
// Theorem 27 detector override.
var agreementCases = []struct {
	name string
	cfg  Config
}{
	{"trivial-n4k3t2", Config{N: 4, K: 3, T: 2}},
	{"paxos-n4k2t2", Config{N: 4, K: 2, T: 2}},
	{"paxos-n3k1t1", Config{N: 3, K: 1, T: 1}},
	{"commitadopt-n4k2t2", Config{N: 4, K: 2, T: 2, Engine: EngineCommitAdopt}},
	{"detectorK-n5k2t3", Config{N: 5, K: 2, T: 3, DetectorK: 1}},
}

// caseSchedule builds a decision-friendly schedule for the configuration:
// conformant for the detector path (so leader attempts succeed and the
// decide/halt path is exercised), random for the trivial algorithm.
// crashes maps each crashing process to its crash step.
func caseSchedule(t *testing.T, cfg Config, steps int, crashes map[procset.ID]int) sched.Schedule {
	t.Helper()
	var (
		src sched.Source
		err error
	)
	if cfg.UsesTrivialAlgorithm() {
		src, err = sched.Random(cfg.N, 77, crashes)
	} else {
		dk := cfg.DetectorK
		if dk == 0 {
			dk = cfg.K
		}
		src, _, err = sched.System(cfg.N, dk, cfg.T+1, 4, 77, crashes)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sched.Take(src, steps)
}

// TestMachineMatchesAlgorithm is the port's contract: the direct-dispatch
// agreement replays the coroutine agreement bit for bit — identical StepInfo
// streams, identical decide events, identical harness state — across both
// algorithms, both engines, and the DetectorK override.
func TestMachineMatchesAlgorithm(t *testing.T) {
	t.Parallel()
	for _, tc := range agreementCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := caseSchedule(t, tc.cfg, 60_000, map[procset.ID]int{procset.ID(tc.cfg.N): 40})
			coro := snapshotAgreement(t, tc.cfg, s, false)
			mach := snapshotAgreement(t, tc.cfg, s, true)
			sameAgreementSnapshot(t, tc.name, coro, mach)
			if coro.decided.IsEmpty() {
				t.Logf("%s: no process decided within the test schedule (equivalence still checked)", tc.name)
			}
		})
	}
}

// TestMachineAgreementResetDeterminism pins the pooled path: a machine
// agreement reused via Agreement.Reset + Runner.Reset — which rewinds every
// automaton in place — replays a fresh run bit for bit, whatever the
// previous run left behind: a run to decision, a mid-run stop with a
// detector iteration or a ballot in flight, or a run in which processes
// crashed. It covers both algorithms, both engines and the DetectorK
// override.
func TestMachineAgreementResetDeterminism(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paxos-n4k2t2", Config{N: 4, K: 2, T: 2}},
		{"paxos-n5k2t3", Config{N: 5, K: 2, T: 3}},
		{"commitadopt-n4k2t2", Config{N: 4, K: 2, T: 2, Engine: EngineCommitAdopt}},
		{"trivial-n4k3t2", Config{N: 4, K: 3, T: 2}},
		{"detectorK-n5k2t3", Config{N: 5, K: 2, T: 3, DetectorK: 1}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := caseSchedule(t, tc.cfg, 30_000, nil)
			crashed := caseSchedule(t, tc.cfg, 30_000, map[procset.ID]int{1: 500, procset.ID(tc.cfg.N): 40})

			var snap agreementSnapshot
			ag, err := New(tc.cfg, func(p procset.ID, v any) {
				snap.events = append(snap.events, decideEvent{proc: p, val: v})
			})
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.NewRunner(sim.Config{
				N:        tc.cfg.N,
				Machine:  ag.Machine(proposals),
				Observer: func(info sim.StepInfo) { snap.trace = append(snap.trace, info) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for _, run := range []struct {
				label string
				s     sched.Schedule
			}{
				{"first run", s},
				{"after a full run", s},
				{"stop at step 137", s[:137]},
				{"after a stop at step 137", s},
				{"stop at step 1001", s[:1001]},
				{"after a stop at step 1001", s},
				{"crash run", crashed},
				{"after a crash run", s},
			} {
				snap = agreementSnapshot{}
				ag.Reset()
				if err := r.Reset(); err != nil {
					t.Fatal(err)
				}
				r.RunSchedule(run.s)
				snap.harvest(ag)
				fresh := snapshotAgreement(t, tc.cfg, run.s, true)
				if len(run.s) == len(s) && fresh.decided.IsEmpty() {
					t.Fatalf("%s: no process decided in the fresh run", run.label)
				}
				sameAgreementSnapshot(t, run.label+": fresh vs pooled", fresh, snap)
			}
		})
	}
}

// pooledRig builds an observer-free pooled agreement runner, the shape of
// the campaign and benchmark rigs.
func pooledRig(tb testing.TB, cfg Config) (*Agreement, *sim.Runner) {
	tb.Helper()
	ag, err := New(cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{N: cfg.N, Machine: ag.Machine(proposals)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.Close)
	return ag, r
}

// TestResetRewindAllocs pins the cost of reuse on the pooled path: with
// every automaton rewound in place, Agreement.Reset + Runner.Reset
// allocates nothing — after a run to decision as well as in a tight loop.
func TestResetRewindAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paxos-n5k2t3", Config{N: 5, K: 2, T: 3}},
		{"commitadopt-n4k2t2", Config{N: 4, K: 2, T: 2, Engine: EngineCommitAdopt}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ag, r := pooledRig(t, tc.cfg)
			reset := func() {
				ag.Reset()
				if err := r.Reset(); err != nil {
					t.Fatal(err)
				}
			}
			r.RunSchedule(caseSchedule(t, tc.cfg, 30_000, nil))
			if ag.DecidedSet().IsEmpty() {
				t.Fatal("no process decided before the reset")
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			reset()
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("reset after a run to decision: %d allocs, want 0", n)
			}
			if avg := testing.AllocsPerRun(100, reset); avg != 0 {
				t.Errorf("reset: %.1f allocs/op, want 0", avg)
			}
		})
	}
}

// BenchmarkRunnerReset measures the per-run reset of a pooled solver,
// Agreement.Reset + Runner.Reset, on the (t,k,n) cells of the agreement
// benchmark workload.
func BenchmarkRunnerReset(b *testing.B) {
	for _, c := range []struct{ t, k, n int }{{1, 1, 3}, {2, 2, 4}, {3, 2, 5}} {
		b.Run(fmt.Sprintf("t%dk%dn%d", c.t, c.k, c.n), func(b *testing.B) {
			ag, r := pooledRig(b, Config{N: c.n, K: c.k, T: c.t})
			b.ReportAllocs()
			for b.Loop() {
				ag.Reset()
				if err := r.Reset(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
