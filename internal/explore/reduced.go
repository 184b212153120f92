// Partial-order reduction for the exhaustive explorer.
//
// ExhaustivePooledCampaign enumerates all n^depth schedules, but most of
// them are redundant: swapping two adjacent steps whose operations commute —
// different registers, two reads of the same register, or any step of a
// halted process — produces a run with the identical final state, hence the
// identical verdict. ExhaustiveReduced explores one representative per such
// commutation class using a sleep-set depth-first search (Godefroid): at
// every prefix state it peeks each process's pending operation
// (Runner.PendingOp), and after exploring process p it adds p to the sleep
// set of the remaining siblings, where p survives into a child's sleep set
// only while its pending operation commutes with the step taken. A process
// in the sleep set heads only schedules equivalent to ones already explored,
// so the subtree is pruned without running it.
//
// Soundness: for every length-depth schedule there is an explored schedule
// reachable from it by swapping adjacent commuting steps, and commuting
// steps preserve the final shared memory and every process's local state —
// so the reduced sweep sees exactly the unreduced verdict set (violation
// messages included), just one representative per class. The equivalence
// tests pin this against the full enumeration on every fuzz target,
// including deliberately broken mutants.
//
// The search replays prefixes on one pooled Run (Reset + RunSchedule) rather
// than snapshotting states; with n ≤ 4 and shallow depths the replay cost is
// dwarfed by the exponential pruning, and the stats report both sides.
package explore

import (
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// ReducedStats reports the shape of one reduced exhaustive sweep.
type ReducedStats struct {
	// Schedules is the number of depth-length canonical schedules whose
	// verdicts were checked — the reduced analogue of the full sweep's run
	// count.
	Schedules int
	// States is the number of interior prefix states expanded.
	States int
	// Total is n^depth, the unreduced schedule count.
	Total int
	// Steps is the number of simulator steps executed, replays included —
	// the true cost of the sweep.
	Steps int64
}

// Ratio is the reduction factor: unreduced schedules per executed schedule.
func (s ReducedStats) Ratio() float64 {
	if s.Schedules == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Schedules)
}

// ExhaustiveReduced checks one canonical representative of every commutation
// class of depth-step schedules over n processes, on a pooled run (the
// machine path — PendingOp needs direct dispatch). It returns the sweep
// stats and the first violation found in depth-first order, if any; the
// violating schedule is a real schedule, replayable on any path.
func ExhaustiveReduced(n, depth int, build PooledBuilder) (ReducedStats, error) {
	return exhaustiveReduced(n, depth, build, nil)
}

// ExhaustiveReducedAll is ExhaustiveReduced without early exit: every
// violating canonical schedule is handed to onViolation, and the sweep
// always completes. The verdict-equivalence tests use it to compare whole
// violation sets against the full enumeration.
func ExhaustiveReducedAll(n, depth int, build PooledBuilder, onViolation func(*Violation)) (ReducedStats, error) {
	return exhaustiveReduced(n, depth, build, onViolation)
}

func exhaustiveReduced(n, depth int, build PooledBuilder, onViolation func(*Violation)) (ReducedStats, error) {
	total, _, err := exhaustiveSpace(n, depth)
	if err != nil {
		return ReducedStats{}, err
	}
	run, err := build()
	if err != nil {
		return ReducedStats{}, err
	}
	defer run.Runner.Close()
	e := &reducedExplorer{
		n:           n,
		depth:       depth,
		run:         run,
		onViolation: onViolation,
		prefix:      make(sched.Schedule, 0, depth),
	}
	e.stats.Total = total
	if err := e.replay(); err != nil {
		return e.stats, err
	}
	if err := e.dfs(0); err != nil {
		return e.stats, err
	}
	if e.violation != nil {
		return e.stats, e.violation
	}
	return e.stats, nil
}

type reducedExplorer struct {
	n, depth int
	run      *Run
	stats    ReducedStats
	prefix   sched.Schedule

	onViolation func(*Violation) // non-nil: collect everything, never stop
	violation   *Violation
	stop        bool
}

// replay restores the runner to the state reached by e.prefix.
func (e *reducedExplorer) replay() error {
	if e.run.Reset != nil {
		e.run.Reset()
	}
	if err := e.run.Runner.Reset(); err != nil {
		return err
	}
	e.run.Runner.RunSchedule(e.prefix)
	e.stats.Steps += int64(len(e.prefix))
	return nil
}

// commutes reports whether the pending operations of two distinct processes
// commute: executing them in either order from the current state yields the
// same state. A halted process's step is a no-op; otherwise two register
// operations conflict exactly when they touch the same register and at
// least one writes. Message operations (send/recv) are treated
// conservatively: any two of them conflict — sends share the network's
// delay-draw stream and sequence counter, and a send can make a message
// deliverable to a pending recv — while a message operation and a register
// operation always commute (they touch disjoint state).
func commutes(ak sim.OpKind, ar sim.RegID, bk sim.OpKind, br sim.RegID) bool {
	if ak == sim.OpNoop || bk == sim.OpNoop {
		return true
	}
	aNet := ak == sim.OpSend || ak == sim.OpRecv
	bNet := bk == sim.OpSend || bk == sim.OpRecv
	if aNet || bNet {
		return aNet != bNet
	}
	if ar != br {
		return true
	}
	return ak == sim.OpRead && bk == sim.OpRead
}

// dfs expands the state reached by e.prefix; the runner is at that state on
// entry (and may be left anywhere on return — each sibling restores via
// replay). sleep is the bitmask of processes provably redundant here.
func (e *reducedExplorer) dfs(sleep uint) error {
	if e.stop {
		return nil
	}
	if len(e.prefix) == e.depth {
		e.stats.Schedules++
		if err := e.run.Check(); err != nil {
			v := &Violation{Schedule: append(sched.Schedule(nil), e.prefix...), Err: err}
			if e.onViolation != nil {
				e.onViolation(v)
			} else {
				e.violation = v
				e.stop = true
			}
		}
		return nil
	}
	e.stats.States++
	// Peek every process's pending operation at this state, before any
	// descent disturbs it. Replays are deterministic, so the peeked values
	// stay valid for every sibling.
	var kinds [procset.MaxProcs + 1]sim.OpKind
	var regs [procset.MaxProcs + 1]sim.RegID
	for p := 1; p <= e.n; p++ {
		kinds[p], regs[p] = e.run.Runner.PendingOp(procset.ID(p))
	}
	first := true
	for p := 1; p <= e.n; p++ {
		if sleep&(1<<p) != 0 {
			continue
		}
		if e.stop {
			return nil
		}
		if !first {
			if err := e.replay(); err != nil {
				return err
			}
		}
		first = false
		// A sleeping process stays asleep in the child only while its pending
		// operation commutes with the step being taken; a conflict wakes it
		// (the orders genuinely differ past this point).
		child := uint(0)
		for q := 1; q <= e.n; q++ {
			if sleep&(1<<q) != 0 && commutes(kinds[q], regs[q], kinds[p], regs[p]) {
				child |= 1 << q
			}
		}
		e.run.Runner.RunSchedule(sched.Schedule{procset.ID(p)})
		e.stats.Steps++
		e.prefix = append(e.prefix, procset.ID(p))
		if err := e.dfs(child); err != nil {
			return err
		}
		e.prefix = e.prefix[:len(e.prefix)-1]
		// Schedules led by p from here on are covered by the subtree just
		// explored (up to commutation): later siblings need not retry p until
		// a conflicting step wakes it.
		sleep |= 1 << p
	}
	return nil
}
