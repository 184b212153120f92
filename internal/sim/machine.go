// Direct-dispatch execution: first-class automata stepped with plain
// function calls.
//
// The coroutine path (Algorithm) is the convenient way to write a process —
// straight-line Go code that blocks on Read/Write — but every step pays two
// unbuffered-channel handoffs and the goroutine context switches around
// them. A Machine is the same automaton made explicit: the runner hands it
// the result of its previous operation and it returns its next request, so a
// step is one function call on the stepping goroutine. Both forms execute
// under the same Runner with identical observable behavior (StepInfo
// streams, harness-visible state between steps), which the algorithm
// packages verify with equivalence tests.

package sim

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// Op is the operation a Machine requests from the runner: one read or write
// of one shared register, or — on runners with a Config.Network — one send
// or recv on the message substrate.
type Op struct {
	// Kind is OpRead, OpWrite, OpSend, or OpRecv.
	Kind OpKind
	// Reg is the register to operate on (read/write kinds), obtained from
	// the Registry the machine was built with. Nil for send/recv kinds.
	Reg Ref
	// Value is the value to store for OpWrite or the payload for OpSend;
	// ignored otherwise.
	Value any
	// Dest is the destination process for OpSend; ignored otherwise.
	Dest procset.ID
	// reg is Reg pre-asserted to the runner's concrete register type, filled
	// by ReadOp/WriteOp. Machines hand back prebuilt ops (often the same Op
	// for millions of steps), so resolving at construction spares the
	// stepping loops a type assertion per step. Nil for literally-constructed
	// Ops; the loops fall back to the asserting path.
	reg *register
}

// ReadOp returns a read request for r.
func ReadOp(r Ref) Op { return Op{Kind: OpRead, Reg: r, reg: asRegister(r)} }

// WriteOp returns a write request storing v in r.
func WriteOp(r Ref, v any) Op { return Op{Kind: OpWrite, Reg: r, Value: v, reg: asRegister(r)} }

// SendOp returns a send request addressing payload to process to. The
// payload follows the register-value aliasing contract: treat it as
// immutable once sent. A nil payload is a pure signal — the delivered
// Message already carries the sender and send step.
func SendOp(to procset.ID, payload any) Op { return Op{Kind: OpSend, Dest: to, Value: payload} }

// RecvOp returns a receive request: the automaton's next prev will be the
// next deliverable *Message, or nil when the substrate has nothing ready.
func RecvOp() Op { return Op{Kind: OpRecv} }

// asRegister resolves a Ref to the concrete register, or nil if it is
// foreign (reported later by mustRegister with a proper panic).
func asRegister(r Ref) *register {
	reg, _ := r.(*register)
	return reg
}

// Machine is an explicit process automaton, the direct-dispatch alternative
// to Algorithm. The runner calls Next with the result of the machine's
// previous operation — the value read for OpRead, nil for OpWrite, and nil
// on the very first call (no operation precedes it) — and the machine
// returns its next request. Returning ok == false halts the automaton
// (the analogue of an Algorithm function returning); subsequent steps
// granted to the process are no-ops.
//
// Next runs on the stepping goroutine with no other process active, exactly
// like the local-computation window of a coroutine process between steps:
// it may freely update state shared with the harness.
type Machine interface {
	Next(prev any) (op Op, ok bool)
}

// Registry provides register interning to Machine factories. It is the
// register-naming subset of Env: calling Reg costs no steps, and handles are
// shared across processes by name. The Runner's shared memory implements it.
type Registry interface {
	// Reg returns the shared register with the given name, creating it with
	// initial value nil if needed.
	Reg(name string) Ref
}

// PtrMachine is an optional extension of Machine for automata that can
// return their next request as a pointer into stable per-machine storage
// (a precomputed op table, a write-op buffer). The runner prefers NextOp
// whenever a machine implements it, skipping the five-word Op copy across
// the dispatch boundary on every step — measurable at the hot campaigns'
// throughput. NextOp returning nil halts the automaton, exactly like Next
// returning ok == false; the pointed-to Op need only stay valid until the
// machine's next call, and both entry points must drive the same automaton
// (the runner uses NextOp exclusively when present).
type PtrMachine interface {
	Machine
	NextOp(prev any) *Op
}

// Rewinder is an optional extension of Machine for automata that can return
// to their constructed state in place. Runner.Reset rewinds such a machine
// instead of calling the factory again, so a pooled run pays no
// construction (register interning, table building) per job. After Rewind
// the machine must drive exactly the automaton a fresh factory call would
// have built, and it must hold nothing a Recycler vended: Reset reclaims
// those in bulk. The factory therefore runs once per process, at NewRunner;
// whatever it reads (proposals, harness hooks) is fixed for the runner's
// lifetime.
type Rewinder interface {
	Machine
	Rewind()
}

// MachineFunc adapts a plain function to the Machine interface.
type MachineFunc func(prev any) (Op, bool)

// Next calls f.
func (f MachineFunc) Next(prev any) (Op, bool) { return f(prev) }

// PendingOp reports the operation process p will execute when next granted a
// step, without executing it: the op kind and the target register's dense id.
// Halted processes report (OpNoop, -1) — their steps are no-ops — and
// message steps (OpSend/OpRecv) report -1 too: they touch no register. Peeking an
// unstarted machine runs its pre-first-op local computation (exactly the work
// the first granted step would run), which is unobservable to checks that
// read op-completion results; the subsequent first step does not repeat it.
// The partial-order-reduced explorer uses this to compute which pending
// operations commute. Machine-mode runners only; a coroutine process's next
// request is not knowable without a rendezvous, so coroutine runners panic.
func (r *Runner) PendingOp(p procset.ID) (OpKind, RegID) {
	if r.machine == nil {
		panic("sim: PendingOp requires a direct-dispatch (Machine) runner")
	}
	pr := r.procAt(p)
	if !pr.started && !pr.isHalted {
		pr.started = true
		r.advanceMachine(pr, nil)
	}
	if pr.isHalted {
		return OpNoop, -1
	}
	return pr.nextKind, pr.nextRegID
}

// stepMachine executes one direct-dispatch step of pr: the pending request
// is applied to shared memory with plain loads/stores, and the machine is
// advanced in place to produce its next request (its local computation runs
// now, inside Step, mirroring the coroutine park barrier).
func (r *Runner) stepMachine(pr *proc, info *StepInfo) {
	if pr.isHalted {
		info.Kind = OpNoop
		r.recordStep(info.Index, pr.id, OpNoop, -1)
		return
	}
	if !pr.started {
		// First activation: the machine's initialization already ran (the
		// factory, or Rewind on Reset); fetch its first request.
		pr.started = true
		r.advanceMachine(pr, nil)
		if pr.isHalted {
			info.Kind = OpNoop
			r.recordStep(info.Index, pr.id, OpNoop, -1)
			return
		}
	}
	id := pr.nextRegID
	pr.stepCount++
	r.recordStep(info.Index, pr.id, pr.nextKind, id)
	switch pr.nextKind {
	case OpRead:
		v := r.mem.values[id]
		info.Kind, info.Reg, info.Value = OpRead, pr.nextReg.name, v
		r.advanceMachine(pr, v)
	case OpWrite:
		v := pr.nextValue
		r.mem.values[id] = v
		r.mem.writeSeqs[id]++
		r.mem.lastWriter[id] = pr.id
		info.Kind, info.Reg, info.Value = OpWrite, pr.nextReg.name, v
		r.advanceMachine(pr, nil)
	case OpSend:
		v := pr.nextValue
		r.net.Send(info.Index, pr.id, pr.nextDest, v)
		info.Kind, info.Value, info.Peer = OpSend, v, pr.nextDest
		r.advanceMachine(pr, nil)
	case OpRecv:
		var prev any
		if m := r.net.Recv(info.Index, pr.id); m != nil {
			prev = m
			info.Value, info.Peer = m.Payload, m.From
		}
		info.Kind = OpRecv
		r.advanceMachine(pr, prev)
	default:
		panic(badOpKind(pr.nextKind))
	}
}

// advanceMachine asks pr's machine for its next request, halting the process
// when the machine is done. The request is stored resolved (kind, concrete
// register, value), so the stepping loops touch no Op struct and perform no
// type assertion per step.
func (r *Runner) advanceMachine(pr *proc, prev any) {
	if pm := pr.ptrMachine; pm != nil {
		op := pm.NextOp(prev)
		if op == nil {
			pr.isHalted = true
			return
		}
		if op.Kind != OpRead && op.Kind != OpWrite {
			r.setNextNet(pr, op.Kind, op.Dest, op.Value)
			return
		}
		rr := op.reg
		if rr == nil {
			rr = mustRegister(op.Reg)
		}
		pr.nextKind = op.Kind
		pr.nextReg = rr
		pr.nextRegID = rr.id
		if op.Kind == OpWrite {
			pr.nextValue = op.Value
		}
		return
	}
	op, ok := pr.machine.Next(prev)
	if !ok {
		pr.isHalted = true
		return
	}
	if op.Kind != OpRead && op.Kind != OpWrite {
		r.setNextNet(pr, op.Kind, op.Dest, op.Value)
		return
	}
	rr := op.reg
	if rr == nil {
		rr = mustRegister(op.Reg)
	}
	pr.nextKind = op.Kind
	pr.nextReg = rr
	pr.nextRegID = rr.id
	if op.Kind == OpWrite {
		// Reads leave the stale value in place (the read path never looks
		// at it), sparing an interface store per read step.
		pr.nextValue = op.Value
	}
}

// setNextNet stores a message-plane request (OpSend/OpRecv) as pr's pending
// operation — the off-the-register-path tail of every machine-advance site,
// so the read/write hot paths keep their instruction streams. Register
// fields are parked on the sentinel no-register state (nil, -1), which is
// what PendingOp reports for message steps.
func (r *Runner) setNextNet(pr *proc, kind OpKind, dest procset.ID, value any) {
	if r.net == nil && (kind == OpSend || kind == OpRecv) {
		panic(fmt.Sprintf("sim: %v op on a runner without Config.Network", kind))
	}
	switch kind {
	case OpSend:
		if dest < 1 || procset.ID(r.n) < dest {
			panic(fmt.Sprintf("sim: send destination %v outside Π%d", dest, r.n))
		}
		if dest == pr.id {
			panic(fmt.Sprintf("sim: %v sends to itself", pr.id))
		}
		pr.nextKind = OpSend
		pr.nextDest = dest
		pr.nextValue = value
	case OpRecv:
		pr.nextKind = OpRecv
	default:
		panic(badOpKind(kind))
	}
	pr.nextReg = nil
	pr.nextRegID = -1
}
