// Direct-dispatch forms of the commit-adopt object and the consensus chain:
// the same automata as Object.Propose and Consensus.Attempt with their
// program counters made explicit, for sim.Runner's machine mode. They issue
// op-for-op the operation streams of their coroutine originals (pinned by
// machine_test.go), so the explorer can reuse one pooled runner across
// millions of schedules without goroutine churn.

package commitadopt

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Register-name builders shared by the coroutine and machine forms, so both
// intern the same slots.
func regNameA(object string, q int) string    { return fmt.Sprintf("ca[%s].A[%d]", object, q) }
func regNameB(object string, q int) string    { return fmt.Sprintf("ca[%s].B[%d]", object, q) }
func regNameDec(instance string) string       { return fmt.Sprintf("cacons[%s].D", instance) }
func roundName(instance string, r int) string { return fmt.Sprintf("%s.r%d", instance, r) }

// proposePhase locates a ProposeMachine inside the two collect phases.
type proposePhase int

const (
	ppStart    proposePhase = iota // nothing issued yet
	ppWroteA                       // the phase-1 publish is in flight
	ppReadingA                     // reading a[q]
	ppWroteB                       // the phase-2 publish is in flight
	ppReadingB                     // reading b[q]
)

// ProposeMachine is the direct-dispatch form of Object.Propose: a one-shot
// automaton that proposes v and halts after delivering (commit, value) to
// the done callback. Like Propose, it costs 2 writes + 2·n reads.
type ProposeMachine struct {
	n    int
	self procset.ID
	a, b []sim.Ref
	v    any

	unanimous bool
	commitVal any
	sawOther  bool

	phase proposePhase
	q     int

	done func(commit bool, val any)
}

// NewProposeMachine builds the machine for one process's proposal to the
// named object. done runs inside the Next call that consumes the final
// collect read — the same serial window in which Propose would return —
// and then the machine halts. It performs no steps.
func NewProposeMachine(regs sim.Registry, object string, self procset.ID, n int, v any, done func(commit bool, val any)) *ProposeMachine {
	if v == nil {
		panic("commitadopt: nil proposals are not supported")
	}
	m := &ProposeMachine{
		n:         n,
		self:      self,
		a:         make([]sim.Ref, n+1),
		b:         make([]sim.Ref, n+1),
		v:         v,
		unanimous: true,
		done:      done,
	}
	for q := 1; q <= n; q++ {
		m.a[q] = regs.Reg(regNameA(object, q))
		m.b[q] = regs.Reg(regNameB(object, q))
	}
	return m
}

// Next implements sim.Machine, mirroring Object.Propose operation for
// operation.
func (m *ProposeMachine) Next(prev any) (sim.Op, bool) {
	switch m.phase {
	case ppStart:
		// Phase 1: publish the proposal.
		m.phase = ppWroteA
		return sim.WriteOp(m.a[m.self], m.v), true
	case ppWroteA:
		m.phase, m.q = ppReadingA, 1
		return sim.ReadOp(m.a[1]), true
	case ppReadingA:
		if prev != nil && prev != m.v {
			m.unanimous = false
		}
		if m.q < m.n {
			m.q++
			return sim.ReadOp(m.a[m.q]), true
		}
		// Phase 2: publish the candidate with its tag.
		m.phase = ppWroteB
		return sim.WriteOp(m.b[m.self], phase2Val{Val: m.v, CommitTry: m.unanimous}), true
	case ppWroteB:
		m.phase, m.q = ppReadingB, 1
		return sim.ReadOp(m.b[1]), true
	case ppReadingB:
		if prev != nil {
			p2, ok := prev.(phase2Val)
			if !ok {
				panic(fmt.Sprintf("commitadopt: register holds %T", prev))
			}
			if p2.CommitTry {
				m.commitVal = p2.Val
			} else {
				m.sawOther = true
			}
		}
		if m.q < m.n {
			m.q++
			return sim.ReadOp(m.b[m.q]), true
		}
		// Resolve exactly as Propose does and halt.
		var commit bool
		var val any
		switch {
		case m.commitVal != nil && !m.sawOther:
			commit, val = true, m.commitVal
		case m.commitVal != nil:
			commit, val = false, m.commitVal
		default:
			commit, val = false, m.v
		}
		if m.done != nil {
			m.done(commit, val)
		}
		return sim.Op{}, false
	default:
		panic(fmt.Sprintf("commitadopt: invalid propose phase %d", m.phase))
	}
}

// consensusPhase locates a ConsensusMachine in the chain loop.
type consensusPhase int

const (
	cpStart    consensusPhase = iota // nothing issued yet
	cpCheckDec                       // the decision-register read is in flight
	cpInner                          // the current round's commit-adopt is running
	cpWroteDec                       // the decision write is in flight
)

// ConsensusMachine is the direct-dispatch form of the Consensus chain run
// to decision: the automaton of a process that calls Attempt(proposal) in
// an endless loop and halts once a round commits — the shape the explorer's
// chain-consensus target executes. done receives the decision.
type ConsensusMachine struct {
	n        int
	self     procset.ID
	instance string
	regs     sim.Registry
	dec      sim.Ref
	proposal any

	est   any
	round int

	phase       consensusPhase
	inner       *ProposeMachine
	innerDone   bool
	innerCommit bool
	innerVal    any

	done func(val any)
}

// NewConsensusMachine builds the machine for one process of the named
// instance. It performs no steps; round objects intern their registers
// lazily as rounds are reached.
func NewConsensusMachine(regs sim.Registry, instance string, self procset.ID, n int, proposal any, done func(val any)) *ConsensusMachine {
	if proposal == nil {
		panic("commitadopt: nil proposals are not supported")
	}
	return &ConsensusMachine{
		n:        n,
		self:     self,
		instance: instance,
		regs:     regs,
		dec:      regs.Reg(regNameDec(instance)),
		proposal: proposal,
		done:     done,
	}
}

// Next implements sim.Machine, mirroring the Attempt loop operation for
// operation: read the decision register; if undecided, run one commit-adopt
// round on the current estimate; on commit, publish the decision and halt.
func (m *ConsensusMachine) Next(prev any) (sim.Op, bool) {
	switch m.phase {
	case cpStart:
		m.phase = cpCheckDec
		return sim.ReadOp(m.dec), true
	case cpCheckDec:
		if prev != nil {
			if m.done != nil {
				m.done(prev)
			}
			return sim.Op{}, false
		}
		if m.est == nil {
			m.est = m.proposal
		}
		m.round++
		m.innerDone = false
		m.inner = NewProposeMachine(m.regs, roundName(m.instance, m.round), m.self, m.n, m.est, func(commit bool, val any) {
			m.innerDone, m.innerCommit, m.innerVal = true, commit, val
		})
		m.phase = cpInner
		op, _ := m.inner.Next(nil) // a fresh propose machine always has a first op
		return op, true
	case cpInner:
		if op, ok := m.inner.Next(prev); ok {
			return op, true
		}
		if !m.innerDone {
			panic("commitadopt: propose machine halted without delivering")
		}
		m.est = m.innerVal
		if !m.innerCommit {
			// Next attempt: re-check the decision register.
			m.phase = cpCheckDec
			return sim.ReadOp(m.dec), true
		}
		m.phase = cpWroteDec
		return sim.WriteOp(m.dec, m.innerVal), true
	case cpWroteDec:
		if m.done != nil {
			m.done(m.innerVal)
		}
		return sim.Op{}, false
	default:
		panic(fmt.Sprintf("commitadopt: invalid consensus phase %d", m.phase))
	}
}

// Round returns the number of commit-adopt rounds this process has started.
func (m *ConsensusMachine) Round() int { return m.round }

// imPhase locates an InstanceMachine call's next pending operation.
type imPhase int

const (
	imIdle      imPhase = iota
	imCheckRead         // the decision-register read is in flight
	imInner             // the current round's commit-adopt object is running
	imDecWrite          // the decision write is in flight
)

// InstanceMachine is the direct-dispatch counterpart of Consensus for
// composition: CheckDecision and single-round Attempt exposed as explicit
// sub-automata with the same Start/Feed/Result protocol as
// consensus.InstanceMachine, so the kset agreement machine can drive either
// engine. (ConsensusMachine above is the standalone run-to-decision loop;
// this type mirrors the per-call granularity of the coroutine Consensus.)
type InstanceMachine struct {
	regs sim.Registry
	name string
	self procset.ID
	n    int
	dec  sim.Ref

	round   int
	est     any
	decided any
	hasDec  bool

	attempting bool
	v          any
	phase      imPhase
	inner      *ProposeMachine
	innerDone  bool
	innerCmt   bool
	innerVal   any
	resVal     any
	resOk      bool
}

// NewInstanceMachine creates the machine-form handle for the named chain
// instance. It performs no steps; round objects intern their registers
// lazily as rounds are reached, exactly like the coroutine form.
func NewInstanceMachine(regs sim.Registry, name string, self procset.ID, n int) *InstanceMachine {
	return &InstanceMachine{
		regs: regs,
		name: name,
		self: self,
		n:    n,
		dec:  regs.Reg(regNameDec(name)),
	}
}

// Rewind returns the handle to its constructed state, keeping its registry,
// name and interned decision register.
func (m *InstanceMachine) Rewind() {
	*m = InstanceMachine{regs: m.regs, name: m.name, self: m.self, n: m.n, dec: m.dec}
}

// Round returns the number of rounds this process has completed.
func (m *InstanceMachine) Round() int { return m.round }

// Result returns the completed call's return value: for CheckDecision the
// (decision, known) pair, for Attempt the (decision, success) pair.
func (m *InstanceMachine) Result() (any, bool) { return m.resVal, m.resOk }

func (m *InstanceMachine) finish(val any, ok bool) (sim.Op, bool) {
	m.phase = imIdle
	m.resVal, m.resOk = val, ok
	return sim.Op{}, false
}

// StartCheck begins a CheckDecision call. When hasOp is false the call
// completed without steps (the decision was already cached).
func (m *InstanceMachine) StartCheck() (op sim.Op, hasOp bool) {
	if m.hasDec {
		return m.finish(m.decided, true)
	}
	m.attempting = false
	m.phase = imCheckRead
	return sim.ReadOp(m.dec), true
}

// StartAttempt begins an Attempt(v) call: one chain round, preceded (as in
// Consensus.Attempt) by a decision-register check. When hasOp is false the
// call completed without steps (the decision was already cached).
func (m *InstanceMachine) StartAttempt(v any) (op sim.Op, hasOp bool) {
	if v == nil {
		panic("commitadopt: nil proposals are not supported")
	}
	if m.hasDec {
		return m.finish(m.decided, true)
	}
	m.attempting, m.v = true, v
	m.phase = imCheckRead
	return sim.ReadOp(m.dec), true
}

// Feed consumes the result of the operation in flight and issues the call's
// next operation; hasOp == false completes the call (see Result).
func (m *InstanceMachine) Feed(prev any) (op sim.Op, hasOp bool) {
	switch m.phase {
	case imCheckRead:
		if prev != nil {
			m.decided, m.hasDec = prev, true
			return m.finish(m.decided, true)
		}
		if !m.attempting {
			return m.finish(m.decided, m.hasDec)
		}
		if m.est == nil {
			m.est = m.v
		}
		m.round++
		m.innerDone = false
		m.inner = NewProposeMachine(m.regs, roundName(m.name, m.round), m.self, m.n, m.est, func(commit bool, val any) {
			m.innerDone, m.innerCmt, m.innerVal = true, commit, val
		})
		m.phase = imInner
		op, _ := m.inner.Next(nil) // a fresh propose machine always has a first op
		return op, true
	case imInner:
		if op, ok := m.inner.Next(prev); ok {
			return op, true
		}
		if !m.innerDone {
			panic("commitadopt: propose machine halted without delivering")
		}
		m.est = m.innerVal
		if !m.innerCmt {
			return m.finish(nil, false)
		}
		m.phase = imDecWrite
		return sim.WriteOp(m.dec, m.innerVal), true
	case imDecWrite:
		m.decided, m.hasDec = m.innerVal, true
		return m.finish(m.decided, true)
	default:
		panic(fmt.Sprintf("commitadopt: Feed with no call in flight (phase %d)", m.phase))
	}
}
