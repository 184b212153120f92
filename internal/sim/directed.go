// Directed execution: the fast path for adaptive adversaries. The batched
// loop (batch.go) assumes the whole schedule is known ahead of the run, so
// an observer that must *react* to executed steps — the parking adversary of
// the Theorem 26/27 experiments — was stuck on the generic per-step path:
// one Step call, one StepInfo materialization, and one observer dispatch per
// step. A Director collapses that round trip: it supplies the next process
// to schedule and is called back only on write steps, with the register
// identified by its dense RegID instead of a name to parse. RunDirected
// drives the director through an inlined machine-dispatch loop that
// materializes no StepInfo at all and hoists the stop/checkEvery branching
// out of the inner loop exactly like Run. The Byzantine plane's pre-write
// hook (WriteMutator) rides the same loop as an argument that is nil for
// honest directors: one directed loop serves every fault model.
//
// This mirrors the adaptive-adversary-as-scheduler framing used by
// lower-bound executions in the literature: the adversary IS the schedule
// source, and the simulator only owes it the write events it bases its next
// scheduling decision on.

package sim

import "github.com/settimeliness/settimeliness/internal/procset"

// Director adaptively drives a run: Next picks the process taking the next
// step (the adversary's scheduling decision), and OnWrite reports every
// executed write step — the only step kind the parking adversaries react to.
// OnWrite runs after the write (and the writer's following local
// computation) completed, i.e. at the point a Config.Observer would have
// seen the step; slot is the register's dense id (see RegID and
// Runner.RegName) and value the value written.
//
// Read and no-op steps produce no callback: a directed run's only per-step
// costs beyond the batched loop are the Next dispatch and a branch.
type Director interface {
	Next() procset.ID
	OnWrite(slot RegID, proc procset.ID, value any)
}

// WriteMutator is the pre-write interception hook of the Byzantine fault
// plane: a director that also implements it is consulted before each write
// lands and may replace the value stored in the register. MutateWrite
// receives the register's dense slot, the writer, the register's current
// (pre-write) content old, and the value the automaton asked to write; it
// returns the value that actually lands. Returning value unchanged makes
// the write honest. The writer's automaton is never told — it proceeds
// believing its own value landed, which is exactly the corrupting-writer
// model (flipped bits, equivocation, replayed stale values).
//
// Contract: OnWrite still fires after the write with the value that landed
// (the mutated one), so schedule-reactive state sees shared-memory reality.
// The mutator is an argument of the one directed loop (nil for honest
// directors), which exists only on machine-mode, observer-free runners, and
// mutating directors need Config.NoRecycle — a replayed old (or an honest
// value retained for later injection) outlives the arena recycler's reuse
// horizon; RunDirected panics on violations of either requirement rather
// than silently dropping mutations. Mutated values must respect the
// invariants the algorithms' readers check at runtime (e.g. int-typed
// registers stay int-typed); a mutation that breaks a reader's type
// assertion panics the run, which the campaign engine isolates and reports.
type WriteMutator interface {
	MutateWrite(slot RegID, proc procset.ID, old, value any) any
}

// RunDirected drives the runner with steps chosen by the director until the
// stop predicate returns true (checked every checkEvery steps; 0 means every
// step) or maxSteps have been executed — Run's contract with the schedule
// source replaced by an adaptive director. Machine-mode runners without an
// observer execute on the inlined fast loop, with the director's
// WriteMutator (if it implements one) consulted before each write; other
// configurations fall back to a generic per-step loop with identical
// observable behavior (schedules, write callbacks, stop decisions).
func (r *Runner) RunDirected(d Director, maxSteps, checkEvery int, stop func() bool) RunResult {
	if checkEvery <= 0 {
		checkEvery = 1
	}
	mut, _ := d.(WriteMutator)
	if r.machine == nil || r.observer != nil {
		if mut != nil {
			// Mutation exists only on the machine fast path: the generic loop
			// would execute writes before the director could intercept them,
			// and silently-honest "Byzantine" runs are a false-green hazard.
			panic("sim: WriteMutator directors require a machine-mode runner without an observer")
		}
		return r.runDirectedGeneric(d, maxSteps, checkEvery, stop)
	}
	if r.closed {
		panic("sim: Step after Close")
	}
	if mut != nil && r.mem.recycleOK {
		panic("sim: WriteMutator directors require Config.NoRecycle (replayed/retained values outlive the recycler's reuse horizon)")
	}
	executed := 0
	for executed < maxSteps {
		// Steps until the next stop check (or the end of the run): the whole
		// chunk executes with no predicate branching, mirroring Run.
		chunk := maxSteps - executed
		if stop != nil && chunk > checkEvery {
			chunk = checkEvery
		}
		for end := executed + chunk; executed < end; executed++ {
			r.stepDirected(d, mut)
		}
		if stop != nil && executed%checkEvery == 0 && stop() {
			return RunResult{Steps: executed, Stopped: true}
		}
	}
	return RunResult{Steps: maxSteps, Stopped: false}
}

// stepDirected executes one director-chosen step by inlined machine
// dispatch: Step minus the StepInfo, plus the write callback. A non-nil mut
// sees (slot, writer, current content, intended value) before a write lands
// and decides what lands; everything else is the same for honest and
// mutating directors, so an inert mutator (one that always returns value)
// replays the honest path bit for bit. Like stepBlock, the machine-advance
// bookkeeping is spelled out in the body — the advanceMachine call (and the
// Op struct copy through it) is measurable at the adversarial campaigns'
// throughput.
func (r *Runner) stepDirected(d Director, mut WriteMutator) {
	p := d.Next()
	pr := r.procAt(p)
	r.steps++
	if pr.isHalted {
		r.recordStep(r.steps-1, p, OpNoop, -1)
		return
	}
	if !pr.started {
		pr.started = true
		r.advanceMachine(pr, nil)
		if pr.isHalted {
			r.recordStep(r.steps-1, p, OpNoop, -1)
			return
		}
	}
	id := pr.nextRegID
	pr.stepCount++
	r.recordStep(r.steps-1, p, pr.nextKind, id)
	var prev, wrote any
	mem := r.mem
	isWrite := pr.nextKind == OpWrite
	switch pr.nextKind {
	case OpWrite:
		wrote = pr.nextValue
		if mut != nil {
			wrote = mut.MutateWrite(id, p, mem.values[id], wrote)
		}
		mem.values[id] = wrote
		mem.writeSeqs[id]++
		mem.lastWriter[id] = p
	case OpRead:
		prev = mem.values[id]
	case OpSend:
		r.net.Send(r.steps-1, p, pr.nextDest, pr.nextValue)
	default: // OpRecv — setNextNet admits nothing else
		if m := r.net.Recv(r.steps-1, p); m != nil {
			prev = m
		}
	}
	if pm := pr.ptrMachine; pm != nil {
		op := pm.NextOp(prev)
		if op == nil {
			pr.isHalted = true
		} else if op.Kind != OpRead && op.Kind != OpWrite {
			r.setNextNet(pr, op.Kind, op.Dest, op.Value)
		} else {
			rr := op.reg
			if rr == nil {
				rr = mustRegister(op.Reg)
			}
			pr.nextKind, pr.nextReg = op.Kind, rr
			pr.nextRegID = rr.id
			if op.Kind == OpWrite {
				pr.nextValue = op.Value
			}
		}
	} else if op, ok := pr.machine.Next(prev); !ok {
		pr.isHalted = true
	} else if op.Kind != OpRead && op.Kind != OpWrite {
		r.setNextNet(pr, op.Kind, op.Dest, op.Value)
	} else {
		rr := op.reg
		if rr == nil {
			rr = mustRegister(op.Reg)
		}
		pr.nextKind, pr.nextReg = op.Kind, rr
		pr.nextRegID = rr.id
		if op.Kind == OpWrite {
			pr.nextValue = op.Value
		}
	}
	if isWrite {
		d.OnWrite(id, p, wrote)
	}
}

// runDirectedGeneric is the per-step directed loop for coroutine runners and
// observed machine runners: a full Step per schedule entry, with the write
// callback synthesized from the StepInfo (the register id resolved through
// the interning table, off the fast path by construction).
func (r *Runner) runDirectedGeneric(d Director, maxSteps, checkEvery int, stop func() bool) RunResult {
	for i := 0; i < maxSteps; i++ {
		p := d.Next()
		info := r.Step(p)
		if info.Kind == OpWrite {
			d.OnWrite(r.mem.idOf(info.Reg), p, info.Value)
		}
		if stop != nil && (i+1)%checkEvery == 0 && stop() {
			return RunResult{Steps: i + 1, Stopped: true}
		}
	}
	return RunResult{Steps: maxSteps, Stopped: false}
}
