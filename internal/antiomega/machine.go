// The direct-dispatch form of Figure 2: the same automaton as Instance with
// its program counter made explicit, so sim.Runner can step it with plain
// function calls instead of coroutine handoffs. This is the hot path of
// every detector campaign.

package antiomega

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// mPhase locates the machine inside one Figure 2 iteration.
type mPhase int

const (
	// phaseCounters: reading Counter[ai][q], row-major (lines 2–3).
	phaseCounters mPhase = iota
	// phaseHeartbeatWrite: the own-heartbeat write is in flight (lines 6–7).
	phaseHeartbeatWrite
	// phaseHeartbeats: reading Heartbeat[q] (lines 8–13).
	phaseHeartbeats
	// phaseExpiry: writing Counter[ai][self] for expired sets (lines 14–19).
	phaseExpiry
)

// MachineInstance is the direct-dispatch port of Instance. It issues
// op-for-op the operation stream of Instance.Iterate in an endless loop and
// runs the same local computations (the shared state methods) at the same
// points of that stream, so a machine-mode detector replays a coroutine
// detector's StepInfo stream bit for bit — machine_test.go pins this.
//
// The machine never halts: like the coroutine form, crashes are expressed
// by the schedule ceasing to contain the process.
type MachineInstance struct {
	state

	hbRefs      []sim.Ref
	counterRefs [][]sim.Ref

	// Precomputed operation tables: the counter-collect phase is ~n·|Πkn| of
	// every iteration's steps, so its read requests are materialized once at
	// construction and replayed by a single cursor, with cntIdx mapping the
	// cursor straight to the flat cnt slot the result lands in.
	counterOps []sim.Op
	cntIdx     []int
	hbReadOps  []sim.Op // ReadOp per heartbeat, indexed q-1

	primed bool // whether the first operation has been issued
	phase  mPhase
	ai, q  int // cursors for the heartbeat and expiry phases
	k      int // cursor into counterOps during phaseCounters

	// onIterate, if non-nil, runs after each completed iteration — inside
	// the Next call that consumes the iteration's final operation, i.e. at
	// the exact point the coroutine Detector publishes. The Detector wires
	// its publication here, tracking the last output it published in
	// published so that only changes fire its callback.
	onIterate func(*MachineInstance)
	published procset.Set

	// opBuf is the stable storage behind NextOp's non-table operations.
	opBuf sim.Op
}

// NewMachineInstance builds the machine for one process and interns its
// register handles. It performs no steps.
func NewMachineInstance(cfg Config, self procset.ID, regs sim.Registry) (*MachineInstance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if self < 1 || int(self) > cfg.N {
		return nil, fmt.Errorf("antiomega: self = %v outside Π%d", self, cfg.N)
	}
	m := &MachineInstance{state: newState(cfg, self)}
	m.hbRefs, m.counterRefs = makeRefs(cfg, m.subsets, regs.Reg)
	n, stride := cfg.N, cfg.N+1
	m.counterOps = make([]sim.Op, 0, len(m.subsets)*n)
	m.cntIdx = make([]int, 0, len(m.subsets)*n)
	for ai := range m.subsets {
		for q := 1; q <= n; q++ {
			m.counterOps = append(m.counterOps, sim.ReadOp(m.counterRefs[ai][q]))
			m.cntIdx = append(m.cntIdx, ai*stride+q)
		}
	}
	m.hbReadOps = make([]sim.Op, n)
	for q := 1; q <= n; q++ {
		m.hbReadOps[q-1] = sim.ReadOp(m.hbRefs[q])
	}
	return m, nil
}

// Rewind implements sim.Rewinder: the machine returns to its constructed
// state in place, keeping its interned registers and op tables.
func (m *MachineInstance) Rewind() {
	m.state.reset()
	m.primed, m.phase = false, phaseCounters
	m.ai, m.q, m.k = 0, 0, 0
	m.published = procset.EmptySet
	m.opBuf = sim.Op{}
}

// Next implements sim.Machine; the runner prefers the pointer form below.
func (m *MachineInstance) Next(prev any) (sim.Op, bool) {
	return *m.NextOp(prev), true // the detector never halts
}

// NextOp implements sim.PtrMachine, the detector's native form: the counter
// collect — the dominant phase of every iteration — returns pointers into
// the precomputed op table; the remaining transitions come from the
// heartbeat table or land in opBuf. No Op is copied anywhere on the hot
// path.
func (m *MachineInstance) NextOp(prev any) *sim.Op {
	if m.phase == phaseCounters && m.primed {
		// Counter collect, duplicated from FeedIterationOp: the dominant
		// phase of every iteration runs here without the extra call frame
		// (FeedIterationOp is beyond the inliner's budget).
		m.cnt[m.cntIdx[m.k]] = asInt(prev)
		m.k++
		if m.k < len(m.counterOps) {
			return &m.counterOps[m.k]
		}
		m.chooseWinner()
		m.myHb++
		m.phase = phaseHeartbeatWrite
		m.opBuf = sim.WriteOp(m.hbRefs[m.self], m.myHb)
		return &m.opBuf
	}
	if !m.primed {
		// First activation: issue the first counter read of iteration one.
		m.primed = true
		return m.BeginIterationOp()
	}
	if op := m.FeedIterationOp(prev); op != nil {
		return op
	}
	if m.onIterate != nil {
		m.onIterate(m)
	}
	return m.BeginIterationOp()
}

// BeginIteration starts one Figure 2 iteration as a composable sub-automaton
// and returns its first operation (the first counter read). Together with
// FeedIteration it is the machine-form counterpart of Instance.Iterate:
// composite automata (the kset agreement machine) interleave iterations with
// their own operations exactly as coroutine code interleaves Iterate calls
// with other sub-protocols of the same process.
func (m *MachineInstance) BeginIteration() sim.Op { return *m.BeginIterationOp() }

// BeginIterationOp is BeginIteration in the pointer-op form composite
// machines step through (see sim.PtrMachine for the aliasing contract).
func (m *MachineInstance) BeginIterationOp() *sim.Op {
	m.phase, m.k = phaseCounters, 0
	return &m.counterOps[0]
}

// FeedIteration consumes the result of the iteration operation in flight and
// returns the iteration's next operation, or done == true when the iteration
// has completed — prev was the result of its final operation and the closing
// local computation (including the iteration counter) has run. Callers then
// issue their own operations or call BeginIteration again; the per-iteration
// operation stream is op-for-op that of Instance.Iterate either way.
func (m *MachineInstance) FeedIteration(prev any) (op sim.Op, done bool) {
	p := m.FeedIterationOp(prev)
	if p == nil {
		return sim.Op{}, true
	}
	return *p, false
}

// FeedIterationOp is FeedIteration in the pointer-op form composite
// machines step through; nil closes the iteration.
func (m *MachineInstance) FeedIterationOp(prev any) *sim.Op {
	// Counter collect first, outside the switch: the dominant phase of
	// every iteration — and of every composite machine built on this one —
	// pays one flat store, one cursor bump, and one table load.
	if m.phase == phaseCounters {
		m.cnt[m.cntIdx[m.k]] = asInt(prev)
		m.k++
		if m.k < len(m.counterOps) {
			return &m.counterOps[m.k]
		}
		// All counters collected: lines 4–5 locally, then lines 6–7.
		m.chooseWinner()
		m.myHb++
		m.phase = phaseHeartbeatWrite
		m.opBuf = sim.WriteOp(m.hbRefs[m.self], m.myHb)
		return &m.opBuf
	}
	n := m.cfg.N
	switch m.phase {
	case phaseHeartbeatWrite:
		m.phase, m.q = phaseHeartbeats, 1
		return &m.hbReadOps[0]
	case phaseHeartbeats:
		m.noteHeartbeat(m.q, asInt(prev))
		if m.q < n {
			m.q++
			return &m.hbReadOps[m.q-1]
		}
		m.phase, m.ai = phaseExpiry, -1
		return m.nextExpiry()
	case phaseExpiry:
		return m.nextExpiry()
	default:
		panic(fmt.Sprintf("antiomega: invalid machine phase %d", m.phase))
	}
}

// nextExpiry scans lines 14–19 from the set after the one whose accusation
// write just landed, returning the next expiry write — or, when every timer
// has been ticked, closing the iteration (nil).
func (m *MachineInstance) nextExpiry() *sim.Op {
	for ai := m.ai + 1; ai < len(m.subsets); ai++ {
		if m.tickTimer(ai) {
			m.ai = ai
			m.opBuf = sim.WriteOp(m.counterRefs[ai][m.self], m.cntRow(ai)[m.self]+1)
			return &m.opBuf
		}
	}
	m.iterations++
	return nil
}
