package sim

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// runnerFingerprint captures everything about a run that the harness can
// observe without an observer: the global step count, per-process progress,
// and halt flags.
type runnerFingerprint struct {
	steps  int
	taken  []int
	halted []bool
}

func fingerprint(r *Runner, n int) runnerFingerprint {
	fp := runnerFingerprint{steps: r.Steps()}
	for p := 1; p <= n; p++ {
		fp.taken = append(fp.taken, r.StepsTaken(procset.ID(p)))
		fp.halted = append(fp.halted, r.Halted(procset.ID(p)))
	}
	return fp
}

func sameFingerprint(t *testing.T, label string, a, b runnerFingerprint) {
	t.Helper()
	if a.steps != b.steps {
		t.Fatalf("%s: step counts differ: %d vs %d", label, a.steps, b.steps)
	}
	for i := range a.taken {
		if a.taken[i] != b.taken[i] || a.halted[i] != b.halted[i] {
			t.Fatalf("%s: p%d progress differs: (%d,%v) vs (%d,%v)", label, i+1,
				a.taken[i], a.halted[i], b.taken[i], b.halted[i])
		}
	}
}

// TestRunBatchMatchesStepLoop pins the batch loop's contract: Run on a
// machine runner produces the same RunResult and the same runner state as
// stepping the identical schedule one Step call at a time.
func TestRunBatchMatchesStepLoop(t *testing.T) {
	t.Parallel()
	const n, maxSteps, checkEvery = 4, 5000, 37
	stopAt := 70 // steps taken by p1 that trigger the stop predicate

	build := func() *Runner {
		r, err := NewRunner(Config{N: n, Machine: counterMachine})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	schedule := func() sched.Source {
		src, err := sched.Random(n, 42, map[procset.ID]int{4: 100})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	batch := build()
	stop := func(r *Runner) func() bool {
		return func() bool { return r.StepsTaken(1) >= stopAt }
	}
	gotRes := batch.Run(schedule(), maxSteps, checkEvery, stop(batch))

	// Reference: the per-step loop over the same schedule and predicate.
	ref := build()
	src := schedule()
	wantRes := RunResult{Steps: maxSteps}
	for i := 0; i < maxSteps; i++ {
		ref.Step(src.Next())
		if (i+1)%checkEvery == 0 && ref.StepsTaken(1) >= stopAt {
			wantRes = RunResult{Steps: i + 1, Stopped: true}
			break
		}
	}
	if gotRes != wantRes {
		t.Fatalf("Run result %+v, step loop %+v", gotRes, wantRes)
	}
	sameFingerprint(t, "batch vs step loop", fingerprint(batch, n), fingerprint(ref, n))
}

// TestRunBatchMatchesGenericLoop cross-checks the two Run loops on the same
// machine config: an observer forces the generic loop, whose observable
// outcome must match the batched loop's.
func TestRunBatchMatchesGenericLoop(t *testing.T) {
	t.Parallel()
	const n, maxSteps, checkEvery = 3, 4000, 100
	run := func(withObserver bool) (RunResult, runnerFingerprint) {
		cfg := Config{N: n, Machine: counterMachine}
		if withObserver {
			cfg.Observer = func(StepInfo) {}
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		src, err := sched.Random(n, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := r.Run(src, maxSteps, checkEvery, func() bool { return r.Steps() >= 2500 })
		return res, fingerprint(r, n)
	}
	fastRes, fastFP := run(false)
	slowRes, slowFP := run(true)
	if fastRes != slowRes {
		t.Fatalf("batched result %+v, generic result %+v", fastRes, slowRes)
	}
	sameFingerprint(t, "batched vs generic", fastFP, slowFP)
}

// TestRunScheduleBatchMatchesStep pins the RunSchedule fast path, including
// machines that halt mid-schedule.
func TestRunScheduleBatchMatchesStep(t *testing.T) {
	t.Parallel()
	const n = 2
	src, err := sched.Random(n, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 50)

	batch, err := NewRunner(Config{N: n, Machine: haltingMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	batch.RunSchedule(s)

	ref, err := NewRunner(Config{N: n, Machine: haltingMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, p := range s {
		ref.Step(p)
	}
	sameFingerprint(t, "RunSchedule vs Step", fingerprint(batch, n), fingerprint(ref, n))
}

// BenchmarkRunBatch is the batch loop's headline number: the same machine
// workload driven by Step in a loop, by the generic Run loop (observer
// present), and by the batched fast path.
func BenchmarkRunBatch(b *testing.B) {
	const n = 4
	newSrc := func(b *testing.B) sched.Source {
		src, err := sched.Random(n, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	b.Run("step-loop", func(b *testing.B) {
		r, err := NewRunner(Config{N: n, Machine: counterMachine})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		src := newSrc(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Step(src.Next())
		}
	})
	b.Run("generic-run", func(b *testing.B) {
		r, err := NewRunner(Config{N: n, Machine: counterMachine, Observer: func(StepInfo) {}})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		src := newSrc(b)
		b.ResetTimer()
		r.Run(src, b.N, 500, func() bool { return false })
	})
	b.Run("batch", func(b *testing.B) {
		r, err := NewRunner(Config{N: n, Machine: counterMachine})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		src := newSrc(b)
		b.ResetTimer()
		r.Run(src, b.N, 500, func() bool { return false })
	})
}
