package antiomega

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// detectorTrace runs a fresh Detector for the given config over the
// schedule in the requested mode and returns the StepInfo stream, the
// recorded output-change events, and the final per-process harness state.
type detectorSnapshot struct {
	trace   []sim.StepInfo
	events  []outputEvent
	outputs []procset.Set
	winners []procset.Set
	iters   []int
}

type outputEvent struct {
	proc procset.ID
	out  procset.Set
}

func snapshotDetector(t *testing.T, cfg Config, s sched.Schedule, machineMode bool) detectorSnapshot {
	t.Helper()
	var snap detectorSnapshot
	det, err := NewDetector(cfg, func(p procset.ID, out procset.Set) {
		snap.events = append(snap.events, outputEvent{proc: p, out: out})
	})
	if err != nil {
		t.Fatal(err)
	}
	scfg := sim.Config{N: cfg.N, Observer: func(info sim.StepInfo) { snap.trace = append(snap.trace, info) }}
	if machineMode {
		scfg.Machine = det.Machine
	} else {
		scfg.Algorithm = det.Algorithm
	}
	r, err := sim.NewRunner(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(s)
	for p := procset.ID(1); int(p) <= cfg.N; p++ {
		snap.outputs = append(snap.outputs, det.Output(p))
		snap.winners = append(snap.winners, det.Winnerset(p))
		snap.iters = append(snap.iters, det.Iterations(p))
	}
	return snap
}

func sameSnapshot(t *testing.T, label string, a, b detectorSnapshot) {
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
		t.Fatalf("%s: event counts differ: %d vs %d", label, len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("%s: output events diverge at %d: %+v vs %+v", label, i, a.events[i], b.events[i])
		}
	}
	for p := range a.outputs {
		if a.outputs[p] != b.outputs[p] || a.winners[p] != b.winners[p] || a.iters[p] != b.iters[p] {
			t.Fatalf("%s: final state of p%d differs: (%v,%v,%d) vs (%v,%v,%d)", label, p+1,
				a.outputs[p], a.winners[p], a.iters[p], b.outputs[p], b.winners[p], b.iters[p])
		}
	}
}

// TestMachineMatchesInstance is the port's contract: the direct-dispatch
// detector replays the coroutine detector bit for bit — identical StepInfo
// streams, identical output-change events, identical harness state — across
// configurations including the ablations.
func TestMachineMatchesInstance(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"n4k2t2", Config{N: 4, K: 2, T: 2}},
		{"n5k2t3", Config{N: 5, K: 2, T: 3}},
		{"n3k1t1", Config{N: 3, K: 1, T: 1}},
		{"aggregate-min", Config{N: 4, K: 2, T: 2, Aggregate: AggregateMin}},
		{"aggregate-max", Config{N: 4, K: 2, T: 2, Aggregate: AggregateMax}},
		{"fixed-timeout", Config{N: 4, K: 2, T: 2, FixedTimeout: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src, err := sched.Random(tc.cfg.N, 1234, map[procset.ID]int{procset.ID(tc.cfg.N): 800})
			if err != nil {
				t.Fatal(err)
			}
			s := sched.Take(src, 4000)
			coro := snapshotDetector(t, tc.cfg, s, false)
			mach := snapshotDetector(t, tc.cfg, s, true)
			sameSnapshot(t, tc.name, coro, mach)
		})
	}
}

// TestMachineDetectorResetDeterminism pins the pooled path: a machine
// detector reused via Detector.Reset + Runner.Reset — which rewinds each
// MachineInstance in place — replays a fresh run, whatever the previous run
// left behind: a full run, a mid-run stop with an iteration in flight, or
// a run in which processes crashed. Output-change events must fire again
// after every rewind exactly as on a fresh detector.
func TestMachineDetectorResetDeterminism(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"n4k2t2", Config{N: 4, K: 2, T: 2}},
		{"n5k2t3", Config{N: 5, K: 2, T: 3}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			schedule := func(seed int64, crashes map[procset.ID]int) sched.Schedule {
				src, err := sched.Random(cfg.N, seed, crashes)
				if err != nil {
					t.Fatal(err)
				}
				return sched.Take(src, 3000)
			}
			s := schedule(9, nil)
			crashed := schedule(10, map[procset.ID]int{1: 500, procset.ID(cfg.N): 40})

			var trace []sim.StepInfo
			var events []outputEvent
			det, err := NewDetector(cfg, func(p procset.ID, out procset.Set) {
				events = append(events, outputEvent{proc: p, out: out})
			})
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.NewRunner(sim.Config{
				N:        cfg.N,
				Machine:  det.Machine,
				Observer: func(info sim.StepInfo) { trace = append(trace, info) },
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
				trace, events = trace[:0], events[:0]
				det.Reset()
				if err := r.Reset(); err != nil {
					t.Fatal(err)
				}
				r.RunSchedule(run.s)
				reused := detectorSnapshot{trace: trace, events: events}
				for p := procset.ID(1); int(p) <= cfg.N; p++ {
					reused.outputs = append(reused.outputs, det.Output(p))
					reused.winners = append(reused.winners, det.Winnerset(p))
					reused.iters = append(reused.iters, det.Iterations(p))
				}
				fresh := snapshotDetector(t, cfg, run.s, true)
				if len(run.s) == len(s) && len(fresh.events) == 0 {
					t.Fatalf("%s: no output-change events in the fresh run", run.label)
				}
				sameSnapshot(t, run.label+": fresh vs pooled", fresh, reused)
			}
		})
	}
}

// TestMachineInstanceValidation covers the constructor's range checks.
func TestMachineInstanceValidation(t *testing.T) {
	t.Parallel()
	r, err := sim.NewRunner(sim.Config{N: 2, Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
		if _, err := NewMachineInstance(Config{N: 1, K: 1, T: 1}, p, regs); err == nil {
			t.Error("invalid config accepted")
		}
		if _, err := NewMachineInstance(Config{N: 2, K: 1, T: 1}, 5, regs); err == nil {
			t.Error("out-of-range self accepted")
		}
		m, err := NewMachineInstance(Config{N: 2, K: 1, T: 1}, p, regs)
		if err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
		return m
	}})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}
