package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// TestFuzzModesBitIdentical is the cross-form determinism contract at the
// campaign level, over every entry of the Target table: the coroutine
// reference (fresh run per schedule, through the adapter) and the machine
// form (reused direct-dispatch run per worker) fold to bit-identical fuzz
// summaries at any worker count.
func TestFuzzModesBitIdentical(t *testing.T) {
	t.Parallel()
	const (
		n     = 3
		steps = 120
		seeds = 24
		base  = int64(5)
	)
	crashes := []map[procset.ID]int{nil, {1: 7}}
	for _, target := range Targets {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			t.Parallel()
			var fuzz []campaign.Summary
			for _, form := range []func(int) PooledBuilder{target.Reference, target.Machine} {
				for _, workers := range []int{1, 8} {
					rep, _, err := FuzzPooledCampaign(context.Background(), workers, n, steps, seeds, base, crashes, form(n), nil)
					if err != nil {
						t.Fatalf("fuzz (workers=%d): %v", workers, err)
					}
					fuzz = append(fuzz, rep.Summary)
				}
			}
			for i := 1; i < len(fuzz); i++ {
				if !reflect.DeepEqual(fuzz[0], fuzz[i]) {
					t.Fatalf("fuzz summary %d diverges:\n%+v\nvs\n%+v", i, fuzz[0], fuzz[i])
				}
			}
		})
	}
}

// TestExhaustiveModesBitIdentical covers the exhaustive enumeration the same
// way, over every entry of the Target table: on the full n = 2 interleaving
// space the reference and machine forms run the same number of schedules
// and fold to bit-identical summaries.
func TestExhaustiveModesBitIdentical(t *testing.T) {
	t.Parallel()
	const depth = 10
	for _, target := range Targets {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			t.Parallel()
			rep, runs, err := ExhaustivePooledCampaign(context.Background(), 2, 2, depth, target.Reference(2), nil)
			if err != nil {
				t.Fatalf("exhaustive reference: %v", err)
			}
			mrep, mruns, err := ExhaustivePooledCampaign(context.Background(), 2, 2, depth, target.Machine(2), nil)
			if err != nil {
				t.Fatalf("exhaustive machine: %v", err)
			}
			if runs != mruns {
				t.Fatalf("run counts differ: %d vs %d", runs, mruns)
			}
			if !reflect.DeepEqual(rep.Summary, mrep.Summary) {
				t.Fatalf("exhaustive summaries diverge:\n%+v\nvs\n%+v", rep.Summary, mrep.Summary)
			}
		})
	}
}

// brokenPooledBuilder is the pooled-path mutation test: a machine protocol
// that commits on phase-1 unanimity alone. The pooled explorer must catch
// the violation, proving reused runs don't mask bugs.
func brokenPooledBuilder(n int) PooledBuilder {
	return func() (*Run, error) {
		results := make([]*caResult, n+1)
		runner, err := sim.NewRunner(sim.Config{
			N: n,
			Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
				a := make([]sim.Ref, n+1)
				for q := 1; q <= n; q++ {
					a[q] = regs.Reg(fmt.Sprintf("A[%d]", q))
				}
				q := 0
				unanimous := true
				adopt := int(p)
				return sim.MachineFunc(func(prev any) (sim.Op, bool) {
					switch {
					case q == 0:
						q = 1
						return sim.WriteOp(a[p], int(p)), true
					case q <= n:
						if q > 1 {
							if v, ok := prev.(int); ok && v != int(p) {
								unanimous = false
								if v < adopt {
									adopt = v
								}
							}
						}
						op := sim.ReadOp(a[q])
						q++
						return op, true
					default:
						if v, ok := prev.(int); ok && v != int(p) {
							unanimous = false
							if v < adopt {
								adopt = v
							}
						}
						results[p] = &caResult{commit: unanimous, val: adopt}
						return sim.Op{}, false
					}
				})
			},
		})
		if err != nil {
			return nil, err
		}
		return &Run{
			Runner: runner,
			Reset:  func() { clear(results) },
			Check: func() error {
				var committed any
				for p := 1; p <= n; p++ {
					if r := results[p]; r != nil && r.commit {
						if committed != nil && committed != r.val {
							return fmt.Errorf("commit disagreement")
						}
						committed = r.val
					}
				}
				if committed == nil {
					return nil
				}
				for p := 1; p <= n; p++ {
					if r := results[p]; r != nil && r.val != committed {
						return fmt.Errorf("adoption mismatch")
					}
				}
				return nil
			},
		}, nil
	}
}

func TestPooledExplorerCatchesBrokenCommitAdopt(t *testing.T) {
	t.Parallel()
	_, _, err := ExhaustivePooledCampaign(context.Background(), 2, 2, 8, brokenPooledBuilder(2), nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("broken pooled protocol not caught: %v", err)
	}
}

func TestPooledTargetBuilderUnknown(t *testing.T) {
	t.Parallel()
	_, err := PooledTargetBuilder("nope", 3)
	if err == nil {
		t.Fatal("unknown target accepted")
	}
	want := `explore: unknown target "nope" (want one of commitadopt, consensus, cachain, kset, bg, antiomega)`
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if _, err := PooledTargetBuilder(TargetKSet, 0); err == nil {
		t.Error("n = 0 accepted")
	}
}
