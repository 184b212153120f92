package explore

import (
	"fmt"
	"strings"

	"github.com/settimeliness/settimeliness/internal/antiomega"
	"github.com/settimeliness/settimeliness/internal/bg"
	"github.com/settimeliness/settimeliness/internal/commitadopt"
	"github.com/settimeliness/settimeliness/internal/consensus"
	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Target names, the -target spellings of cmd/stm-campaign.
const (
	TargetCommitAdopt = "commitadopt"
	TargetConsensus   = "consensus"
	// TargetCAChain is consensus built from the commit-adopt chain engine —
	// the same workload as TargetConsensus on the repo's second engine.
	TargetCAChain = "cachain"
	// TargetKSet is the full Theorem 24 agreement construction (detector ∘
	// consensus composition) at k = t = n/2.
	TargetKSet = "kset"
	// TargetBG is the Borowsky–Gafni simulation substrate: n simulators over
	// an (n+2)-thread wait-min protocol.
	TargetBG = "bg"
	// TargetAntiOmega is the anti-Ω detector of Figure 2 at k = t = n/2. Its
	// guarantees are liveness-flavored, so under Byzantine corruption it
	// shows degradation rather than safety violations.
	TargetAntiOmega = "antiomega"
)

// Target is one protocol whose safety the explorer guards, defined once for
// every campaign: fuzz and exhaustive sweeps (on either execution form),
// the Byzantine degradation sweep and the adversarial starvation campaign
// all build their runs from its harness.
type Target struct {
	// Name is the target's -target spelling.
	Name string
	// harness builds one instance of the workload for n processes.
	harness func(n int) (*harness, error)
}

// harness is one instance of a target's workload: both execution forms
// writing the same result slots, and the hooks that read those slots.
type harness struct {
	// algo is the coroutine reference form.
	algo func(procset.ID) sim.Algorithm
	// machine is the direct-dispatch production form.
	machine func(procset.ID, sim.Registry) sim.Machine
	// reset restores the result slots before a reused machine-form run.
	reset func()
	// check applies the safety properties to every process outside skip:
	// empty for fuzz and exhaustive runs, the corrupt set for Byzantine runs
	// (a Byzantine process's own outputs carry no obligations).
	check func(skip procset.Set) error
	// progress reports whether p has delivered its result — the liveness
	// verdict of Byzantine runs and the stop condition of adversarial ones.
	progress func(p procset.ID) bool
}

// Targets is the target table, in -target help order.
var Targets = []Target{
	{TargetCommitAdopt, commitAdoptHarness},
	{TargetConsensus, consensusHarness},
	{TargetCAChain, caChainHarness},
	{TargetKSet, ksetHarness},
	{TargetBG, bgHarness},
	{TargetAntiOmega, antiOmegaHarness},
}

// TargetNames joins the table's names with sep.
func TargetNames(sep string) string {
	names := make([]string, len(Targets))
	for i, t := range Targets {
		names[i] = t.Name
	}
	return strings.Join(names, sep)
}

// LookupTarget returns the named table entry.
func LookupTarget(name string) (Target, error) {
	for _, t := range Targets {
		if t.Name == name {
			return t, nil
		}
	}
	return Target{}, fmt.Errorf("explore: unknown target %q (want one of %s)", name, TargetNames(", "))
}

// build validates n and builds one harness, so a bad system size surfaces
// as an error before any campaign worker runs.
func (t Target) build(n int) (*harness, error) {
	if n < 1 || n > procset.MaxProcs {
		return nil, fmt.Errorf("explore: %s needs 1 ≤ n ≤ %d, got %d", t.Name, procset.MaxProcs, n)
	}
	return t.harness(n)
}

// Machine returns the target's pooled builder on the production path: one
// direct-dispatch runner per worker, restarted by Runner.Reset (machines
// that implement sim.Rewinder are rewound in place, the rest rebuilt by
// their factories).
func (t Target) Machine(n int) PooledBuilder {
	return func() (*Run, error) {
		h, err := t.build(n)
		if err != nil {
			return nil, err
		}
		runner, err := sim.NewRunner(sim.Config{N: n, Machine: h.machine})
		if err != nil {
			return nil, err
		}
		return &Run{
			Runner: runner,
			Reset:  h.reset,
			Check:  func() error { return h.check(procset.EmptySet) },
		}, nil
	}
}

// Reference returns the target's coroutine reference form on the pooled
// path: every schedule runs on a fresh coroutine run of a fresh harness.
func (t Target) Reference(n int) PooledBuilder {
	return referenceBuilder(n, func() (func(procset.ID) sim.Algorithm, func() error) {
		h, err := t.build(n)
		if err != nil {
			panic(err) // the first build of the adapter already succeeded
		}
		return h.algo, func() error { return h.check(procset.EmptySet) }
	})
}

// PooledTargetBuilder returns the named target's production pooled builder
// for n processes, validating both up front.
func PooledTargetBuilder(name string, n int) (PooledBuilder, error) {
	t, err := LookupTarget(name)
	if err != nil {
		return nil, err
	}
	if _, err := t.build(n); err != nil {
		return nil, err
	}
	return t.Machine(n), nil
}

// filled is the progress predicate of slot-per-process harnesses: p has
// delivered a result.
func filled[T comparable](results []T) func(procset.ID) bool {
	var zero T
	return func(p procset.ID) bool { return results[p] != zero }
}

// honestOnly returns results with the skipped processes' entries zeroed, so
// a check written for all processes applies to the rest unmodified.
func honestOnly[T any](results []T, skip procset.Set) []T {
	if skip.IsEmpty() {
		return results
	}
	out := make([]T, len(results))
	copy(out, results)
	var zero T
	for _, p := range skip.Members() {
		out[p] = zero
	}
	return out
}

// caResult is one process's delivered commit-adopt outcome.
type caResult struct {
	commit bool
	val    any
}

// commitAdoptHarness runs one commit-adopt object where each process
// proposes its id.
func commitAdoptHarness(n int) (*harness, error) {
	results := make([]*caResult, n+1)
	return &harness{
		algo: func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				c, v := commitadopt.New(env, "x").Propose(int(p))
				results[p] = &caResult{commit: c, val: v}
			}
		},
		machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			return commitadopt.NewProposeMachine(regs, "x", p, n, int(p), func(commit bool, val any) {
				results[p] = &caResult{commit: commit, val: val}
			})
		},
		reset:    func() { clear(results) },
		check:    func(skip procset.Set) error { return checkCommitAdopt(n, honestOnly(results, skip)) },
		progress: filled(results),
	}, nil
}

// checkCommitAdopt enforces validity, agreement on commit, and that every
// finisher adopted the committed value.
func checkCommitAdopt(n int, results []*caResult) error {
	var committed any
	for p := 1; p <= n; p++ {
		r := results[p]
		if r == nil {
			continue // did not finish within this schedule: fine
		}
		v, ok := r.val.(int)
		if !ok || v < 1 || v > n {
			return fmt.Errorf("p%d returned non-proposal %v", p, r.val)
		}
		if r.commit {
			if committed != nil && committed != r.val {
				return fmt.Errorf("commit disagreement: %v vs %v", committed, r.val)
			}
			committed = r.val
		}
	}
	if committed == nil {
		return nil
	}
	for p := 1; p <= n; p++ {
		if r := results[p]; r != nil && r.val != committed {
			return fmt.Errorf("p%d carries %v, committed %v", p, r.val, committed)
		}
	}
	return nil
}

// consensusHarness runs contending Disk-Paxos proposers: process p
// repeatedly attempts value 10p.
func consensusHarness(n int) (*harness, error) {
	decisions := make([]any, n+1)
	return decisionHarness(n, decisions,
		func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				in := consensus.NewInstance(env, "c")
				for {
					if d, ok := in.Attempt(int(p) * 10); ok {
						decisions[p] = d
						return
					}
				}
			}
		},
		func(p procset.ID, regs sim.Registry) sim.Machine {
			return consensus.AttemptLoopMachine(regs, "c", p, n, int(p)*10, func(d any) {
				decisions[p] = d
			})
		}), nil
}

// caChainHarness runs contending commit-adopt-chain proposers: process p
// repeatedly attempts value 10p.
func caChainHarness(n int) (*harness, error) {
	decisions := make([]any, n+1)
	return decisionHarness(n, decisions,
		func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				in := commitadopt.NewConsensus(env, "c")
				for {
					if d, ok := in.Attempt(int(p) * 10); ok {
						decisions[p] = d
						return
					}
				}
			}
		},
		func(p procset.ID, regs sim.Registry) sim.Machine {
			return commitadopt.NewConsensusMachine(regs, "c", p, n, int(p)*10, func(val any) {
				decisions[p] = val
			})
		}), nil
}

// decisionHarness completes the harness shared by the two consensus
// engines, whose processes write their decisions into decisions[p].
func decisionHarness(n int, decisions []any, algo func(procset.ID) sim.Algorithm, machine func(procset.ID, sim.Registry) sim.Machine) *harness {
	return &harness{
		algo:     algo,
		machine:  machine,
		reset:    func() { clear(decisions) },
		check:    func(skip procset.Set) error { return checkDecisions(n, honestOnly(decisions, skip)) },
		progress: filled(decisions),
	}
}

// checkDecisions enforces that decisions are proposals (10·p) and agree.
func checkDecisions(n int, decisions []any) error {
	var first any
	for p := 1; p <= n; p++ {
		d := decisions[p]
		if d == nil {
			continue
		}
		v, ok := d.(int)
		if !ok || v%10 != 0 || v < 10 || v > 10*n {
			return fmt.Errorf("p%d decided non-proposal %v", p, d)
		}
		if first == nil {
			first = d
		} else if d != first {
			return fmt.Errorf("disagreement: %v vs %v", first, d)
		}
	}
	return nil
}

// ksetConfig is the explored agreement problem for n processes: k = t =
// n/2, which keeps the detector ∘ consensus composition (Theorem 24's path)
// in play for every n ≥ 2.
func ksetConfig(n int) kset.Config {
	kt := max(n/2, 1)
	return kset.Config{N: n, K: kt, T: kt}
}

// ksetHarness runs the full Theorem 24 agreement construction, process p
// proposing 10·p.
func ksetHarness(n int) (*harness, error) {
	cfg := ksetConfig(n)
	ag, err := kset.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	proposal := func(p procset.ID) any { return int(p) * 10 }
	return &harness{
		algo:    ag.Algorithm(proposal),
		machine: ag.Machine(proposal),
		reset:   ag.Reset,
		check:   func(skip procset.Set) error { return checkKSet(cfg, ag, skip) },
		progress: func(p procset.ID) bool {
			_, ok := ag.Decision(p)
			return ok
		},
	}, nil
}

// checkKSet enforces the two safety properties that hold on every schedule
// over the processes outside skip: validity (decisions are proposals, here
// 10·p) and uniform k-agreement (at most k distinct decisions). Termination
// is a liveness property and is not required of arbitrary schedules.
func checkKSet(cfg kset.Config, ag *kset.Agreement, skip procset.Set) error {
	distinct := make(map[any]bool)
	for p := 1; p <= cfg.N; p++ {
		id := procset.ID(p)
		if skip.Contains(id) {
			continue
		}
		d, ok := ag.Decision(id)
		if !ok {
			continue
		}
		v, isInt := d.(int)
		if !isInt || v%10 != 0 || v < 10 || v > 10*cfg.N {
			return fmt.Errorf("p%d decided non-proposal %v", p, d)
		}
		distinct[d] = true
	}
	if len(distinct) > cfg.K {
		return fmt.Errorf("%d distinct decisions, k = %d", len(distinct), cfg.K)
	}
	return nil
}

// bgHarness runs the BG simulation: n simulators over n+2 simulated threads
// of the wait-min protocol at resilience f = n−1 (the Theorem 26
// reduction's shape, m = f+1 simulators), thread i's input being 10·i.
func bgHarness(n int) (*harness, error) {
	threads, f := n+2, n-1
	inputs := make([]int, threads+1)
	for i := 1; i <= threads; i++ {
		inputs[i] = i * 10
	}
	proto, err := bg.NewWaitMinProtocol(inputs, f)
	if err != nil {
		return nil, err
	}
	simn, err := bg.New(n, proto)
	if err != nil {
		return nil, err
	}
	return &harness{
		algo:    simn.Algorithm,
		machine: simn.Machine,
		reset:   simn.Reset,
		// Thread decisions are joint work of all simulators: no process can
		// be exempted, so skip is ignored and the full check always applies.
		check: func(procset.Set) error { return checkBG(threads, f, simn) },
		progress: func(procset.ID) bool {
			return simn.DecidedThreads() == threads
		},
	}, nil
}

// checkBG enforces the safety side of the wait-min protocol under
// simulation: decided threads decided valid inputs, with at most f+1
// distinct values.
func checkBG(threads, f int, simn *bg.Simulation) error {
	distinct := make(map[any]bool)
	for i := 1; i <= threads; i++ {
		d, ok := simn.ThreadDecision(i)
		if !ok {
			continue
		}
		v, isInt := d.(int)
		if !isInt || v%10 != 0 || v < 10 || v > 10*threads {
			return fmt.Errorf("thread %d decided non-input %v", i, d)
		}
		distinct[d] = true
	}
	if len(distinct) > f+1 {
		return fmt.Errorf("%d distinct decisions, want ≤ f+1 = %d", len(distinct), f+1)
	}
	return nil
}

// antiOmegaHarness runs the Figure 2 detector at k = t = n/2. Its checkable
// safety residue is structural: a published output is either absent or
// exactly n−k candidates inside Πn. A process progresses once it has
// completed two detector iterations.
func antiOmegaHarness(n int) (*harness, error) {
	kt := max(n/2, 1)
	det, err := antiomega.NewDetector(antiomega.Config{N: n, K: kt, T: kt}, nil)
	if err != nil {
		return nil, err
	}
	full := procset.FullSet(n)
	return &harness{
		algo:    det.Algorithm,
		machine: det.Machine,
		reset:   det.Reset,
		check: func(skip procset.Set) error {
			for p := 1; p <= n; p++ {
				id := procset.ID(p)
				if skip.Contains(id) {
					continue
				}
				out := det.Output(id)
				if out.IsEmpty() {
					continue
				}
				if out.Size() != n-kt || !out.SubsetOf(full) {
					return fmt.Errorf("p%d published malformed output %v (want %d members of Π%d)", p, out, n-kt, n)
				}
			}
			return nil
		},
		progress: func(p procset.ID) bool { return det.Iterations(p) >= 2 },
	}, nil
}
