// The batched execution loop behind Run and RunSchedule. A per-step loop
// pays, per step, one interface dispatch on the schedule source, a StepInfo
// materialization, an observer branch, and a stop-predicate modulus. None of
// that is needed on the hot configuration — a machine-mode runner with no
// observer driving millions of steps between stop checks — so Run prefetches
// schedule entries in blocks (through sched.BlockSource when the source
// provides it) and executes each block in a tight loop of inlined machine
// dispatch that constructs no StepInfo at all. The stop()/checkEvery
// branching is hoisted out of the inner loop: blocks are sized so checks
// land exactly on the multiples of checkEvery where a per-step loop would
// have performed them.
//
// The coroutine path keeps the per-step loop (runGeneric): every one of its
// steps blocks on two channel handoffs anyway, so batching would complicate
// the engine for a path whose cost is dominated by synchronization, not
// dispatch.

package sim

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// batchBlock is the schedule prefetch size. Big enough to amortize the
// per-block source call and loop bookkeeping, small enough to stay in cache
// and to keep partial blocks (between stop checks) cheap to fill.
const batchBlock = 256

// Run drives the runner with steps from src until the stop predicate returns
// true (checked every checkEvery steps; 0 means every step) or maxSteps have
// been executed. stop may be nil. Machine-mode runners without an observer
// execute on the batched loop; any other configuration takes the generic
// per-step loop. Runs are bit-identical across the two loops and across
// engine modes.
func (r *Runner) Run(src sched.Source, maxSteps, checkEvery int, stop func() bool) RunResult {
	if checkEvery <= 0 {
		checkEvery = 1
	}
	if r.machine == nil || r.observer != nil {
		return r.runGeneric(src, maxSteps, checkEvery, stop)
	}
	if r.closed {
		panic("sim: Step after Close")
	}
	// The prefetch buffer lives on the runner: handed to the schedule source
	// through an interface it would escape, costing one 2 KiB heap
	// allocation per Run call — visible to the zero-overhead guard now that
	// short pooled runs call Run millions of times per campaign.
	buf := &r.batchBuf
	executed := 0
	for executed < maxSteps {
		// Steps until the next stop check (or the end of the run): the whole
		// chunk executes with no predicate branching.
		chunk := maxSteps - executed
		if stop != nil && chunk > checkEvery {
			chunk = checkEvery
		}
		for chunk > 0 {
			k := chunk
			if k > batchBlock {
				k = batchBlock
			}
			block := buf[:k]
			sched.FillBlock(src, block)
			r.stepBlock(block)
			executed += k
			chunk -= k
		}
		if stop != nil && executed%checkEvery == 0 && stop() {
			return RunResult{Steps: executed, Stopped: true}
		}
	}
	return RunResult{Steps: maxSteps, Stopped: false}
}

// stepBlock executes a block of schedule entries by inlined machine
// dispatch. It is Step minus everything the hot path does not need: no
// StepInfo is materialized (there is no observer), no per-step predicate
// runs, and the machine-advance bookkeeping of advanceMachine is spelled
// out in the loop body (the per-step function call is measurable at this
// loop's throughput). Counters (Steps, StepsTaken, Halted) advance exactly
// as under Step.
func (r *Runner) stepBlock(block []procset.ID) {
	procs := r.procs
	// mem is a stable pointer, but its dense slices must be re-read per step:
	// a machine's Next may intern a register (mid-run Rebind), growing the
	// arrays. Indexing through mem each time keeps the loads current; the
	// slice headers stay in cache regardless.
	mem := r.mem
	// Metrics accumulate in block-local counters folded at the end of the
	// block — never a runner-field store per step — and the flight recorder,
	// nil unless a debugging session attached one, costs one predictable
	// branch per step while detached.
	fr := r.flight
	var reads, writes, noops, sends, recvs int64
	for _, p := range block {
		if p < 1 || procset.ID(len(procs)) < p {
			panic(fmt.Sprintf("sim: process %v outside Π%d", p, len(procs)))
		}
		pr := procs[p-1]
		r.steps++
		if pr.isHalted {
			noops++
			if fr != nil {
				fr.record(r.steps-1, p, OpNoop, -1)
			}
			continue
		}
		if !pr.started {
			pr.started = true
			r.advanceMachine(pr, nil)
			if pr.isHalted {
				noops++
				if fr != nil {
					fr.record(r.steps-1, p, OpNoop, -1)
				}
				continue
			}
		}
		var prev any
		id := pr.nextRegID
		switch pr.nextKind {
		case OpRead:
			prev = mem.values[id]
			reads++
		case OpWrite:
			mem.values[id] = pr.nextValue
			mem.writeSeqs[id]++
			mem.lastWriter[id] = p
			writes++
		case OpSend:
			r.net.Send(r.steps-1, p, pr.nextDest, pr.nextValue)
			sends++
		default: // OpRecv — setNextNet admits nothing else
			if m := r.net.Recv(r.steps-1, p); m != nil {
				prev = m
			}
			recvs++
		}
		if fr != nil {
			fr.record(r.steps-1, p, pr.nextKind, id)
		}
		pr.stepCount++
		if pm := pr.ptrMachine; pm != nil {
			// Pointer-op machines hand back a pointer into their own stable
			// storage: no five-word Op copy across the dispatch boundary.
			op := pm.NextOp(prev)
			if op == nil {
				pr.isHalted = true
				continue
			}
			if op.Kind != OpRead && op.Kind != OpWrite {
				r.setNextNet(pr, op.Kind, op.Dest, op.Value)
				continue
			}
			rr := op.reg
			if rr == nil {
				rr = mustRegister(op.Reg)
			}
			pr.nextKind, pr.nextReg = op.Kind, rr
			pr.nextRegID = rr.id
			if op.Kind == OpWrite {
				pr.nextValue = op.Value
			}
			continue
		}
		op, ok := pr.machine.Next(prev)
		if !ok {
			pr.isHalted = true
			continue
		}
		if op.Kind != OpRead && op.Kind != OpWrite {
			r.setNextNet(pr, op.Kind, op.Dest, op.Value)
			continue
		}
		rr := op.reg
		if rr == nil {
			rr = mustRegister(op.Reg)
		}
		pr.nextKind, pr.nextReg = op.Kind, rr
		pr.nextRegID = rr.id
		if op.Kind == OpWrite {
			// Reads leave the stale value in place rather than storing a nil
			// interface: the read path never looks at it, and skipping the
			// store spares a write barrier on ~¾ of all steps.
			pr.nextValue = op.Value
		}
	}
	r.stats.reads += reads
	r.stats.writes += writes
	r.stats.noops += noops
	r.stats.sends += sends
	r.stats.recvs += recvs
}
