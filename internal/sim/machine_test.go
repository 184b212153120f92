package sim

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// traceOf runs cfg (plus a recording observer) over the schedule and returns
// the StepInfo stream.
func traceOf(t *testing.T, cfg Config, s sched.Schedule) []StepInfo {
	t.Helper()
	var trace []StepInfo
	cfg.Observer = func(info StepInfo) { trace = append(trace, info) }
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(s)
	return trace
}

func sameTrace(t *testing.T, label string, a, b []StepInfo) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: traces diverge at step %d: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestMachineMatchesCoroutine is the engine's core equivalence property: the
// same automaton in coroutine and direct-dispatch form produces bit-identical
// StepInfo streams on the same schedule.
func TestMachineMatchesCoroutine(t *testing.T) {
	t.Parallel()
	src, err := sched.Random(3, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 500)
	coro := traceOf(t, Config{N: 3, Algorithm: func(procset.ID) Algorithm { return counterAlgo }}, s)
	mach := traceOf(t, Config{N: 3, Machine: counterMachine}, s)
	sameTrace(t, "coroutine vs machine", coro, mach)
}

// haltingMachine writes its id once and halts.
func haltingMachine(p procset.ID, regs Registry) Machine {
	x := regs.Reg("x")
	done := false
	return MachineFunc(func(prev any) (Op, bool) {
		if done {
			return Op{}, false
		}
		done = true
		return WriteOp(x, int(p)), true
	})
}

func TestMachineHaltsToNoop(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Machine: haltingMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Step(1)
	if info.Kind != OpWrite || info.Value != 1 {
		t.Fatalf("first step = %+v", info)
	}
	info = r.Step(1)
	if info.Kind != OpNoop {
		t.Fatalf("second step = %+v, want noop", info)
	}
	if !r.Halted(1) {
		t.Error("Halted = false after machine finished")
	}
	if r.StepsTaken(1) != 1 {
		t.Errorf("StepsTaken = %d, want 1 (noop steps do not count)", r.StepsTaken(1))
	}
}

func TestMachineImmediateHaltIsNoop(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Machine: func(procset.ID, Registry) Machine {
		return MachineFunc(func(any) (Op, bool) { return Op{}, false })
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info := r.Step(1); info.Kind != OpNoop {
		t.Fatalf("step of immediately-halting machine = %+v, want noop", info)
	}
	if r.StepsTaken(1) != 0 {
		t.Errorf("StepsTaken = %d, want 0", r.StepsTaken(1))
	}
}

// TestMachineFirstNextReceivesNil pins the Next contract: nil before any
// operation, the read value after reads, nil after writes.
func TestMachineFirstNextReceivesNil(t *testing.T) {
	t.Parallel()
	var got []any
	r, err := NewRunner(Config{N: 1, Machine: func(_ procset.ID, regs Registry) Machine {
		x := regs.Reg("x")
		pc := 0
		return MachineFunc(func(prev any) (Op, bool) {
			got = append(got, prev)
			switch pc {
			case 0:
				pc++
				return WriteOp(x, "v"), true
			case 1:
				pc++
				return ReadOp(x), true
			default:
				return Op{}, false
			}
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(sched.Schedule{1, 1})
	want := []any{nil, nil, "v"}
	if len(got) != len(want) {
		t.Fatalf("Next called %d times, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Next call %d received %v, want %v", i, got[i], want[i])
		}
	}
}

// TestResetDeterminism is the pooling contract: a Reset runner replays the
// exact StepInfo stream of a fresh one, in both execution modes.
func TestResetDeterminism(t *testing.T) {
	t.Parallel()
	src, err := sched.Random(3, 41, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 400)
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"machine", Config{N: 3, Machine: counterMachine}},
		{"coroutine", Config{N: 3, Algorithm: func(procset.ID) Algorithm { return counterAlgo }}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			fresh := traceOf(t, mode.cfg, s)

			var trace []StepInfo
			cfg := mode.cfg
			cfg.Observer = func(info StepInfo) { trace = append(trace, info) }
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for round := 0; round < 3; round++ {
				trace = trace[:0]
				if err := r.Reset(); err != nil {
					t.Fatal(err)
				}
				if r.Steps() != 0 {
					t.Fatalf("round %d: Steps = %d after Reset", round, r.Steps())
				}
				r.RunSchedule(s)
				reused := append([]StepInfo(nil), trace...)
				sameTrace(t, "fresh vs reset", fresh, reused)
			}
		})
	}
}

// TestResetRevivesHaltedProcesses covers reuse of runs whose automata
// terminate (the explorer's one-shot protocols).
func TestResetRevivesHaltedProcesses(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 2, Machine: haltingMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for round := 0; round < 2; round++ {
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
		for _, p := range []procset.ID{1, 2} {
			if r.Halted(p) {
				t.Fatalf("round %d: %v halted right after Reset", round, p)
			}
		}
		r.RunSchedule(sched.Schedule{1, 2, 1, 2})
		if got := r.mem.read(r.mem.reg("x")); got != 2 {
			t.Fatalf("round %d: x = %v, want 2", round, got)
		}
		if !r.Halted(1) || !r.Halted(2) {
			t.Fatalf("round %d: processes not halted after their writes", round)
		}
	}
}

// rewindingMachine writes 1, 2, 3 to its own register and halts; Rewind
// starts it over and counts the call.
type rewindingMachine struct {
	reg     Ref
	i       int
	rewinds *int
}

func (m *rewindingMachine) Next(any) (Op, bool) {
	if m.i == 3 {
		return Op{}, false
	}
	m.i++
	return WriteOp(m.reg, m.i), true
}

func (m *rewindingMachine) Rewind() {
	m.i = 0
	*m.rewinds++
}

// TestResetRewindContract pins how Reset restarts each kind of process: a
// Rewinder is rewound in place, its factory having run once per process at
// NewRunner, on observed and NoRecycle runners alike; any other machine is
// rebuilt by its factory on every Reset, and so is a coroutine process.
func TestResetRewindContract(t *testing.T) {
	t.Parallel()
	const n, resets = 3, 3
	s := sched.Schedule{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{N: n}},
		{"observed", Config{N: n, Observer: func(StepInfo) {}}},
		{"norecycle", Config{N: n, NoRecycle: true}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var builds, rewinds, funcBuilds int
			rewinding := tc.cfg
			rewinding.Machine = func(p procset.ID, regs Registry) Machine {
				builds++
				return &rewindingMachine{reg: regs.Reg(fmt.Sprintf("r%d", p)), rewinds: &rewinds}
			}
			plain := tc.cfg
			plain.Machine = func(p procset.ID, regs Registry) Machine {
				funcBuilds++
				return haltingMachine(p, regs)
			}
			rr, err := NewRunner(rewinding)
			if err != nil {
				t.Fatal(err)
			}
			defer rr.Close()
			rp, err := NewRunner(plain)
			if err != nil {
				t.Fatal(err)
			}
			defer rp.Close()
			for round := 0; round <= resets; round++ {
				if round > 0 {
					if err := rr.Reset(); err != nil {
						t.Fatal(err)
					}
					if err := rp.Reset(); err != nil {
						t.Fatal(err)
					}
				}
				rr.RunSchedule(s)
				rp.RunSchedule(s)
				for p := procset.ID(1); int(p) <= n; p++ {
					if got := rr.mem.read(rr.mem.reg(fmt.Sprintf("r%d", p))); got != 3 || !rr.Halted(p) {
						t.Fatalf("round %d: %v wrote %v (halted %v), want 3 and halted", round, p, got, rr.Halted(p))
					}
				}
			}
			if builds != n || rewinds != n*resets {
				t.Errorf("Rewinder: %d factory calls, %d rewinds; want %d and %d", builds, rewinds, n, n*resets)
			}
			if funcBuilds != n*(resets+1) {
				t.Errorf("MachineFunc: %d factory calls, want %d", funcBuilds, n*(resets+1))
			}
		})
	}
	t.Run("coroutine", func(t *testing.T) {
		t.Parallel()
		builds := 0
		r, err := NewRunner(Config{N: n, Algorithm: func(procset.ID) Algorithm {
			builds++
			return counterAlgo
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for round := 0; round < resets; round++ {
			r.RunSchedule(s)
			if err := r.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		if builds != n*(resets+1) {
			t.Errorf("Algorithm: %d factory calls, want %d", builds, n*(resets+1))
		}
	})
}

// TestResetClearsRegisterValues pins the interning semantics: the register
// set survives Reset, values do not.
func TestResetClearsRegisterValues(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Machine: counterMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(sched.Schedule{1, 1, 1, 1})
	if got := r.mem.read(r.mem.reg("counter")); got != 2 {
		t.Fatalf("counter = %v before Reset, want 2", got)
	}
	regs := r.Registers()
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := r.mem.read(r.mem.reg("counter")); got != nil {
		t.Errorf("counter = %v after Reset, want nil", got)
	}
	if r.Registers() != regs {
		t.Errorf("Registers = %d after Reset, want %d (interned set survives)", r.Registers(), regs)
	}
}

func TestMachineRunnerStopPredicate(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Machine: counterMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src, err := sched.RoundRobin(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(src, 1000, 0, func() bool { return r.Steps() >= 7 })
	if !res.Stopped || res.Steps != 7 {
		t.Errorf("Run = %+v, want stopped at 7", res)
	}
}

// TestRegisterPlaneMetadata checks the dense-plane accessors: machine-mode
// runners count writes and track the last writer per register; coroutine
// runners (boxed plane) report zero values; Reset clears the metadata.
func TestRegisterPlaneMetadata(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 2, Machine: counterMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(sched.Schedule{1, 1, 1, 2, 2, 2})
	id := r.mem.idOf("counter")
	// counterMachine alternates read/write, so 3 steps per process = 1 write
	// each plus the in-flight ones; just check the invariants rather than the
	// exact automaton shape.
	if got := r.RegWrites(id); got == 0 {
		t.Errorf("RegWrites = 0 after writes, want > 0")
	}
	if got := r.RegLastWriter(id); got != 2 {
		t.Errorf("RegLastWriter = %v, want 2 (last scheduled writer)", got)
	}
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := r.RegWrites(id); got != 0 {
		t.Errorf("RegWrites = %d after Reset, want 0", got)
	}
	if got := r.RegLastWriter(id); got != 0 {
		t.Errorf("RegLastWriter = %v after Reset, want 0", got)
	}
}

// TestRegisterPlaneCoroutineZero: the dense plane exists only in machine
// mode; the accessors degrade to zero values on coroutine runners.
func TestRegisterPlaneCoroutineZero(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Algorithm: func(procset.ID) Algorithm { return counterAlgo }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(sched.Schedule{1, 1, 1, 1})
	id := r.mem.idOf("counter")
	if got := r.RegWrites(id); got != 0 {
		t.Errorf("coroutine RegWrites = %d, want 0", got)
	}
	if got := r.RegLastWriter(id); got != 0 {
		t.Errorf("coroutine RegLastWriter = %v, want 0", got)
	}
}

// nilRegMachine requests one write through WriteOp's pre-resolved register
// and then a literal Op with a nil Reg, so the bad request reaches each
// loop's own decode of a machine's next op rather than the first-activation
// path they share.
type nilRegMachine struct {
	x  Ref
	i  int
	op Op
}

func (m *nilRegMachine) Next(any) (Op, bool) {
	m.i++
	if m.i == 1 {
		return WriteOp(m.x, 1), true
	}
	return Op{Kind: OpWrite, Value: 2}, true
}

// nilRegPtrMachine is nilRegMachine in PtrMachine form, whose decode is a
// separate branch in every loop.
type nilRegPtrMachine struct{ nilRegMachine }

func (m *nilRegPtrMachine) NextOp(prev any) *Op {
	m.op, _ = m.Next(prev)
	return &m.op
}

// TestNilRegPanicsAlike: a machine Op with a nil Reg panics with one message
// on every stepping loop — Step's advanceMachine and the inlined decodes of
// the batched and directed loops, honest or mutating.
func TestNilRegPanicsAlike(t *testing.T) {
	t.Parallel()
	const want = "sim: read/write request with nil Reg (a Machine Op or an Env call)"
	inert := &hookDirector{mutate: func(_, v any) any { return v }, onWrite: func(any) {}}
	paths := []struct {
		name      string
		noRecycle bool
		run       func(r *Runner)
	}{
		{"Step", false, func(r *Runner) { r.Step(1); r.Step(1) }},
		{"Run", false, func(r *Runner) {
			src, err := sched.RoundRobin(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.Run(src, 4, 0, nil)
		}},
		{"RunSchedule", false, func(r *Runner) { r.RunSchedule(sched.Schedule{1, 1}) }},
		{"RunDirected", false, func(r *Runner) { r.RunDirected(&recordingDirector{n: 1}, 4, 0, nil) }},
		{"RunDirected/mutating", true, func(r *Runner) { r.RunDirected(inert, 4, 0, nil) }},
	}
	forms := map[string]func(p procset.ID, regs Registry) Machine{
		"machine": func(_ procset.ID, regs Registry) Machine { return &nilRegMachine{x: regs.Reg("x")} },
		"ptr": func(_ procset.ID, regs Registry) Machine {
			return &nilRegPtrMachine{nilRegMachine{x: regs.Reg("x")}}
		},
	}
	for _, path := range paths {
		for form, factory := range forms {
			r, err := NewRunner(Config{N: 1, Machine: factory, NoRecycle: path.noRecycle})
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer r.Close()
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s/%s: recover = %v, want %q", path.name, form, got, want)
					}
				}()
				path.run(r)
			}()
		}
	}
}
