package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// mustTarget looks up a Target table entry.
func mustTarget(t *testing.T, name string) Target {
	t.Helper()
	target, err := LookupTarget(name)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

func TestCommitAdoptExhaustiveN2(t *testing.T) {
	t.Parallel()
	// Propose costs 2 + 2n = 6 steps per process with n=2; depth 12 covers
	// every interleaving of two complete proposals: 4096 runs.
	_, runs, err := ExhaustivePooledCampaign(context.Background(), 0, 2, 12, mustTarget(t, TargetCommitAdopt).Reference(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 4096 {
		t.Errorf("runs = %d, want 4096", runs)
	}
}

func TestCommitAdoptFuzzN4(t *testing.T) {
	t.Parallel()
	crashes := []map[procset.ID]int{
		nil,
		{1: 3},
		{2: 0, 4: 9},
	}
	_, runs, err := FuzzPooledCampaign(context.Background(), 0, 4, 300, 60, 0, crashes, mustTarget(t, TargetCommitAdopt).Reference(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 180 {
		t.Errorf("runs = %d, want 180", runs)
	}
}

// brokenAgreementBuilder is a deliberately wrong protocol: each process
// writes its value and decides the minimum it has read so far — transient
// views differ, so two processes can "commit" different values. The
// explorer must catch it (mutation test for the harness itself), run in
// coroutine form through the reference adapter.
func brokenAgreementBuilder(n int) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		decided := make([]any, n+1)
		algo := func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				regs := make([]sim.Ref, n+1)
				for q := 1; q <= n; q++ {
					regs[q] = env.Reg(fmt.Sprintf("V[%d]", q))
				}
				env.Write(regs[p], int(p))
				min := int(p)
				for q := 1; q <= n; q++ {
					if v, ok := env.Read(regs[q]).(int); ok && v < min {
						min = v
					}
				}
				decided[p] = min
			}
		}
		check := func() error {
			var first any
			for p := 1; p <= n; p++ {
				if decided[p] == nil {
					continue
				}
				if first == nil {
					first = decided[p]
				} else if decided[p] != first {
					return fmt.Errorf("disagreement: %v vs %v", first, decided[p])
				}
			}
			return nil
		}
		return algo, check
	}
}

func TestExplorerCatchesBrokenAgreement(t *testing.T) {
	t.Parallel()
	_, _, err := ExhaustivePooledCampaign(context.Background(), 0, 2, 12, referenceBuilder(2, brokenAgreementBuilder(2)), nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("broken protocol not caught: %v", err)
	}
	if len(v.Schedule) != 12 {
		t.Errorf("violation schedule = %v", v.Schedule)
	}
}

// brokenCommitAdoptBuilder skips the second collect phase: commits are based on
// phase 1 unanimity alone, which is unsound. The fuzzer must catch it.
func brokenCommitAdoptBuilder(n int) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		type result struct {
			commit bool
			val    any
		}
		results := make([]*result, n+1)
		algo := func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				a := make([]sim.Ref, n+1)
				for q := 1; q <= n; q++ {
					a[q] = env.Reg(fmt.Sprintf("A[%d]", q))
				}
				env.Write(a[p], int(p))
				unanimous := true
				adopt := int(p)
				for q := 1; q <= n; q++ {
					if v, ok := env.Read(a[q]).(int); ok && v != int(p) {
						unanimous = false
						if v < adopt {
							adopt = v
						}
					}
				}
				results[p] = &result{commit: unanimous, val: adopt}
			}
		}
		check := func() error {
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
		}
		return algo, check
	}
}

func TestExplorerCatchesBrokenCommitAdopt(t *testing.T) {
	t.Parallel()
	_, _, err := ExhaustivePooledCampaign(context.Background(), 0, 2, 8, referenceBuilder(2, brokenCommitAdoptBuilder(2)), nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("broken commit-adopt not caught: %v", err)
	}
}

// TestConsensusSafetyExhaustiveTiny explores every schedule of two
// contending Disk-Paxos proposers for 16 steps: no interleaving may yield
// two different decisions or a non-proposal decision.
func TestConsensusSafetyExhaustiveTiny(t *testing.T) {
	t.Parallel()
	_, runs, err := ExhaustivePooledCampaign(context.Background(), 0, 2, 16, mustTarget(t, TargetConsensus).Reference(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 65536 {
		t.Errorf("runs = %d", runs)
	}
}

func TestExhaustiveValidation(t *testing.T) {
	t.Parallel()
	b := mustTarget(t, TargetCommitAdopt).Reference(2)
	ctx := context.Background()
	if _, _, err := ExhaustivePooledCampaign(ctx, 0, 5, 3, b, nil); err == nil {
		t.Error("n = 5 accepted")
	}
	if _, _, err := ExhaustivePooledCampaign(ctx, 0, 2, 0, b, nil); err == nil {
		t.Error("depth = 0 accepted")
	}
	if _, _, err := ExhaustivePooledCampaign(ctx, 0, 2, 25, b, nil); err == nil {
		t.Error("depth = 25 accepted")
	}
}

func TestViolationMarshalJSON(t *testing.T) {
	t.Parallel()
	v := &Violation{Schedule: sched.Schedule{1, 2, 1}, Err: fmt.Errorf("disagreement: 10 vs 20")}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Schedule string `json:"schedule"`
		Err      string `json:"err"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Err != "disagreement: 10 vs 20" || got.Schedule == "" {
		t.Errorf("marshaled violation = %s", data)
	}
}

// TestViolationReachesJSONLStream drives a violating campaign through the
// JSONL sink end to end: the failing batch's record must carry the
// violation's schedule and error text, not an empty object.
func TestViolationReachesJSONLStream(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	sink, sinkErr := campaign.JSONLSink(&buf)
	_, _, err := ExhaustivePooledCampaign(context.Background(), 2, 2, 12, referenceBuilder(2, brokenAgreementBuilder(2)), sink)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("broken protocol not caught: %v", err)
	}
	if *sinkErr != nil {
		t.Fatal(*sinkErr)
	}
	if !strings.Contains(buf.String(), `"err":"disagreement`) {
		t.Errorf("violation error text missing from JSONL stream:\n%s", buf.String())
	}
}
