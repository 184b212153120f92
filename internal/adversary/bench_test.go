package adversary

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// newBenchRig builds the Theorem 24 workload on the machine engine plus a
// pooled adversary, the exact configuration of the negative matrix cells;
// noRecycle builds the runner a mutating director needs.
func newBenchRig(b *testing.B, cfg kset.Config, noRecycle bool) (*kset.Agreement, *sim.Runner, *Adversary) {
	b.Helper()
	ag, err := kset.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := sim.NewRunner(sim.Config{
		N:         cfg.N,
		Machine:   ag.Machine(func(p procset.ID) any { return int(p) }),
		NoRecycle: noRecycle,
	})
	if err != nil {
		b.Fatal(err)
	}
	adv, err := New(Config{N: cfg.N})
	if err != nil {
		runner.Close()
		b.Fatal(err)
	}
	return ag, runner, adv
}

// BenchmarkAdversaryDrive measures the directed loop on the Theorem 24
// workload: the parking adversary alone (the honest path, nil mutator), and
// the same adversary wrapped in an inert Byzantine director on a NoRecycle
// runner (the mutating path with every write passed through unchanged).
// The bench-smoke CI job runs it.
func BenchmarkAdversaryDrive(b *testing.B) {
	cfg := kset.Config{N: 4, K: 2, T: 2}
	b.Run("directed", func(b *testing.B) {
		_, runner, adv := newBenchRig(b, cfg, false)
		defer runner.Close()
		b.ReportAllocs()
		b.ResetTimer()
		adv.DriveDirected(runner, b.N, 200, nil)
	})
	b.Run("byzantine-inert", func(b *testing.B) {
		_, runner, adv := newBenchRig(b, cfg, true)
		defer runner.Close()
		byz, err := NewByzantine(ByzantineConfig{N: cfg.N, Strategy: StrategyNone, Inner: adv})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		byz.DriveDirected(runner, b.N, 200, nil)
	})
}

// readOnlyMachine reads one register forever: the workload that isolates the
// directed loop itself (no writes, so no value boxing) for the steady-state
// allocation assertion.
type readOnlyMachine struct{ reg sim.Ref }

func (m *readOnlyMachine) Next(prev any) (sim.Op, bool) { return sim.ReadOp(m.reg), true }

// smallWriteMachine alternates a read with a write of a small int (boxed to
// the runtime's static cells, so the workload itself does not allocate),
// exercising the OnWrite metadata lookup.
type smallWriteMachine struct {
	reg  sim.Ref
	flip bool
}

func (m *smallWriteMachine) Next(prev any) (sim.Op, bool) {
	m.flip = !m.flip
	if m.flip {
		return sim.WriteOp(m.reg, 7), true
	}
	return sim.ReadOp(m.reg), true
}

// TestDirectedSteadyStateAllocs is the satellite's ≈0-alloc assertion: once
// the schedule-recording prefix is full and the metadata table warm, a
// directed run allocates nothing per step — on a read-only workload and on a
// writing workload that exercises the OnWrite path.
func TestDirectedSteadyStateAllocs(t *testing.T) {
	workloads := []struct {
		name    string
		machine func(p procset.ID, regs sim.Registry) sim.Machine
	}{
		{"reads", func(p procset.ID, regs sim.Registry) sim.Machine {
			return &readOnlyMachine{reg: regs.Reg("r")}
		}},
		{"writes", func(p procset.ID, regs sim.Registry) sim.Machine {
			return &smallWriteMachine{reg: regs.Reg("w")}
		}},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			runner, err := sim.NewRunner(sim.Config{N: 3, Machine: w.machine})
			if err != nil {
				t.Fatal(err)
			}
			defer runner.Close()
			adv, err := New(Config{N: 3, ScheduleLimit: 100})
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: fill the schedule prefix and the metadata table.
			adv.DriveDirected(runner, 1000, 0, nil)
			avg := testing.AllocsPerRun(10, func() {
				adv.DriveDirected(runner, 10_000, 200, nil)
			})
			if avg > 0.5 {
				t.Errorf("steady-state directed run allocates %.2f allocs per 10k-step run, want ≈0", avg)
			}
		})
	}
}
