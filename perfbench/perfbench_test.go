package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"slices"
	"testing"

	stm "github.com/settimeliness/settimeliness"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/check"
	"github.com/settimeliness/settimeliness/internal/explore"
	"github.com/settimeliness/settimeliness/internal/msgnet"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// The production-equivalence tests run a small slice of each workload next
// to the entry point users call, with the same inputs, and require the same
// per-run verdicts and tallies.

func TestAgreementMatchesSolve(t *testing.T) {
	ctx := context.Background()
	specs := agreementSpecs(11, 24)
	w, err := newAgreement(newHarness(false), specs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for i := range specs {
		spec := &specs[i]
		rig, err := w.pools[spec.cell].Get()
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.one(rig, spec)
		w.pools[spec.cell].Put(rig)
		if err != nil {
			t.Fatal(err)
		}
		cell := agreementCells[spec.cell]
		want, err := stm.Solve(ctx, stm.WithProblem(stm.NewProblem(cell.t, cell.k, cell.n)), stm.WithSeed(spec.seed), stm.WithCrashes(spec.crashes))
		if err != nil {
			t.Fatalf("run %d: Solve: %v", i, err)
		}
		if got.Decided != want.Decided || got.Steps != want.Steps || got.Distinct != want.Distinct || !reflect.DeepEqual(got.Decisions, want.Decisions) || !got.OK {
			t.Fatalf("run %d (cell %v, crashes %v): benchmark %+v, Solve %+v", i, cell, spec.crashes, got, want)
		}
	}
}

func TestSeparationMatchesAdversarialCampaign(t *testing.T) {
	ctx := context.Background()
	const seed = 5
	for s, n := range separationSizes {
		pop := separationPopulation(n)
		runs := min(2*len(pop), 64) // one run per campaign job
		var want []string
		rep, _, err := explore.AdversarialPooledCampaign(ctx, 1, n, separationSteps, runs, seed, func(o campaign.Outcome) {
			want = append(want, o.Verdict)
		})
		if err != nil {
			t.Fatal(err)
		}
		offset := seed % len(pop)
		var specs []separationSpec
		for r := 0; r < runs; r++ {
			specs = append(specs, separationSpec{size: s, crashed: pop[(r+offset)%len(pop)]})
		}
		w, err := newSeparation(newHarness(false), specs)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		tallies := map[string]int{"runs": runs}
		for _, spec := range specs {
			rig, err := w.pools[s].Get()
			if err != nil {
				t.Fatal(err)
			}
			verdict, _, err := w.one(rig, spec.crashed)
			w.pools[s].Put(rig)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, verdict)
			tallies[verdict]++
		}
		w.close()
		if !slices.Equal(got, want) || !reflect.DeepEqual(tallies, rep.Summary.Tallies) {
			t.Fatalf("n=%d: benchmark %v %v, campaign %v %v", n, got, tallies, want, rep.Summary.Tallies)
		}
	}
}

func TestBGMatchesFuzzCampaign(t *testing.T) {
	ctx := context.Background()
	const base, seeds = 40, 16
	patterns := []map[procset.ID]int{nil, {1: 300}, {2: 50, 3: 900}}
	build, err := explore.PooledTargetBuilder("bg", bgSimulators)
	if err != nil {
		t.Fatal(err)
	}
	// The production campaign's check also records each run's step
	// counters, so the two sides are compared step kind by step kind.
	var wantStats []sim.Stats
	recording := func() (*explore.Run, error) {
		run, err := build()
		if err != nil {
			return nil, err
		}
		check := run.Check
		run.Check = func() error {
			wantStats = append(wantStats, run.Runner.Stats())
			return check()
		}
		return run, nil
	}
	var want []string
	if _, _, err := explore.FuzzPooledCampaign(ctx, 1, bgSimulators, bgSteps, seeds, base, patterns, recording, func(o campaign.Outcome) {
		want = append(want, o.Verdict)
	}); err != nil {
		t.Fatal(err)
	}
	var specs []bgSpec
	for r := 0; r < seeds*len(patterns); r++ {
		specs = append(specs, bgSpec{seed: base + int64(r/len(patterns)), crashes: patterns[r%len(patterns)]})
	}
	w, err := newBGReduction(newHarness(false), specs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	run, err := w.pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer w.pool.Put(run)
	for i := range specs {
		ok, err := w.one(run, &specs[i])
		if err != nil {
			t.Fatal(err)
		}
		verdict := "ok"
		if !ok {
			verdict = "violation"
		}
		if verdict != want[i] || run.Runner.Stats() != wantStats[i] {
			t.Fatalf("run %d: benchmark %s %+v, campaign %s %+v", i, verdict, run.Runner.Stats(), want[i], wantStats[i])
		}
	}
}

func TestNetconvMatchesNetConvCampaign(t *testing.T) {
	ctx := context.Background()
	const seed, runs = 3, 3
	rep, _, err := explore.NetConvCampaign(ctx, explore.NetConvConfig{N: netN, Runs: runs, Steps: netSteps, Seed: seed, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newNetconv(newHarness(false), runs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	got, err := runRound(ctx, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Summary.Tallies, rep.Summary.Tallies) {
		t.Fatalf("benchmark tallies %v\ncampaign tallies %v", got.Summary.Tallies, rep.Summary.Tallies)
	}
}

func runRound(ctx context.Context, w workload, seed int64) (*campaign.Report, error) {
	return newHarness(false).round(ctx, w, seed)
}

// A known-bad outcome of each kind must be classified as failed and counted.
func TestClassifierCountsKnownBad(t *testing.T) {
	proposals := map[procset.ID]any{1: "v1", 2: "v2", 3: "v3"}
	twoValued := check.AgreementRun{N: 3, K: 1, T: 1, Proposals: proposals, Decisions: map[procset.ID]any{1: "v1", 2: "v2", 3: "v2"}, Correct: procset.FullSet(3)}
	oneValued := twoValued
	oneValued.Decisions = map[procset.ID]any{1: "v2", 2: "v2", 3: "v2"}
	if ok, _ := classifyAgreement(oneValued, true); !ok {
		t.Fatal("a valid decided run was classified as failed")
	}
	_, sepOK := classifySeparation(true, nil)
	_, sepSafe := classifySeparation(false, nil)
	bgOK, _ := classifyBG(errors.New("3 distinct decisions, want ≤ f+1 = 2"))
	asyncOK, _ := classifyNetconv(msgnet.MatrixAsync, false)
	if !sepSafe || !asyncOK {
		t.Fatal("an expected outcome was classified as failed")
	}
	bad := []struct {
		name string
		ok   bool
	}{
		{"more than k values", first(classifyAgreement(twoValued, true))},
		{"undecided", first(classifyAgreement(oneValued, false))},
		{"decided separation run", sepOK},
		{"failed bg check", bgOK},
		{"split sync run", first(classifyNetconv(msgnet.MatrixSync, false))},
		{"split psync run", first(classifyNetconv(msgnet.MatrixPartialSync, false))},
	}
	runner, err := sim.NewRunner(sim.Config{N: 1, Machine: func(procset.ID, sim.Registry) sim.Machine {
		return sim.MachineFunc(func(any) (sim.Op, bool) { return sim.Op{}, false })
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	h := newHarness(false)
	for _, b := range bad {
		if b.ok {
			t.Errorf("%s classified as expected", b.name)
		}
		h.endRun(h.beginRun(), runner, b.ok, b.name)
	}
	if h.c.Failed != int64(len(bad)) || h.firstFail != bad[0].name {
		t.Fatalf("harness counted %d failures (first %q), want %d", h.c.Failed, h.firstFail, len(bad))
	}
}

func first(ok bool, _ string) bool { return ok }

// Counts depend on the inputs alone: the same seed gives the same counts
// per run over any number of rounds and with tracing on. Another seed gives
// other counts, except on separation, whose rounds run the whole pattern
// population in a seed-drawn order.
func TestCountsDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			one := phaseCounts(t, ctx, name, 1, false, 1)
			if two := phaseCounts(t, ctx, name, 1, false, 2); !reflect.DeepEqual(one, two) {
				t.Errorf("one round %v\ntwo rounds %v", one, two)
			}
			if traced := phaseCounts(t, ctx, name, 1, true, 1); !reflect.DeepEqual(one, traced) {
				t.Errorf("untraced %v\ntraced %v", one, traced)
			}
			other := phaseCounts(t, ctx, name, 2, false, 1)
			if same := reflect.DeepEqual(one, other); same != (name == "separation") {
				t.Errorf("seeds 1 and 2: counts %v and %v", one, other)
			}
		})
	}
}

func phaseCounts(t *testing.T, ctx context.Context, name string, seed int64, traced bool, rounds int) map[string]float64 {
	t.Helper()
	h := newHarness(traced)
	w, err := setUp(ctx, config{workload: name, seed: seed}, h)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	m := startMeter(h, w, seed)
	for range rounds {
		if err := m.round(ctx); err != nil {
			t.Fatal(err)
		}
	}
	p := m.finish()
	if p.c.Failed != 0 {
		t.Fatalf("%d failed runs: %s", p.c.Failed, h.firstFail)
	}
	return countsPerRun(p)
}

// Both modes print exactly the metrics BENCHMARK.json declares, with its
// units, and the traced mode reports its span coverage and overhead.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, _, err := run(ctx, config{workload: name, seed: 1, seconds: 0.05, trace: traced})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct %v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
