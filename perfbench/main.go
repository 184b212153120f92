// Command perfbench is the repository's benchmark. It runs one of four
// campaign workloads (agreement, separation, bg-reduction, netconv) built
// from the internal layers, checks every run's verdict against the paper's
// guarantee, and prints its metrics as one JSON object on the last line of
// standard output. With -trace 0 those are the end-to-end metrics; with
// -trace 1 a traced run gives the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(mainRun(os.Args[1:])) }

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

func mainRun(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time of the run, in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "file for the spans of the first traced round (JSON lines); empty: not written")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, cfg.workload) || cfg.seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	cfg.trace = *traceMode == 1

	res, rec, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec.FailedFrac = ratio(float64(res.Failed), float64(res.Attempted))
	printTable(os.Stderr, rec, res)
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"perfbench": rec}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record describes the run: the machine fingerprint and what was measured.
type record struct {
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workers    int     `json:"workers"`
	Runs       int64   `json:"runs"`
	Rounds     int     `json:"rounds"`
	// Windows is the number of runWindow-run windows the run-time
	// percentiles are medians over.
	Windows    int      `json:"windows"`
	FailedFrac float64  `json:"failed_frac"`
	FirstFail  string   `json:"first_failure,omitempty"`
	Notes      []string `json:"notes,omitempty"`
}

func fingerprint(cfg config) record {
	return record{
		Workload:   cfg.workload,
		Trace:      cfg.trace,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workers:    1,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision: PERFBENCH_COMMIT when the launcher found
// one, else the build's VCS stamp.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// unaccountedBound is the share of job time the spans may leave uncovered
// before the traced run reports it.
const unaccountedBound = 0.10

func run(ctx context.Context, cfg config) (result, record, error) {
	rec := fingerprint(cfg)
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		setup, w, h, err := timedSetup(ctx, cfg)
		if err != nil {
			return result{}, rec, err
		}
		defer w.close()
		p, err := h.measure(ctx, w, cfg.seed, d)
		if err != nil {
			return result{}, rec, err
		}
		rec.fill(p, h)
		res := result{Correct: p.c.Failed == 0, Attempted: p.c.Runs, Failed: p.c.Failed, Metrics: endToEnd(p, setup)}
		return res, rec, nil
	}

	// Traced mode: an untraced and a traced copy of the workload, each with
	// its own rigs, alternate round by round, so that both see the same
	// machine conditions. Their counts must agree per run.
	hu, ht := newHarness(false), newHarness(true)
	wu, err := setUp(ctx, cfg, hu)
	if err != nil {
		return result{}, rec, err
	}
	defer wu.close()
	wt, err := setUp(ctx, cfg, ht)
	if err != nil {
		return result{}, rec, err
	}
	defer wt.close()
	mu, mt := startMeter(hu, wu, cfg.seed), startMeter(ht, wt, cfg.seed)
	for start := time.Now(); mt.p.rounds == 0 || time.Since(start) < d; {
		if err := mu.round(ctx); err != nil {
			return result{}, rec, err
		}
		if err := mt.round(ctx); err != nil {
			return result{}, rec, err
		}
	}
	u, p := mu.finish(), mt.finish()
	rec.fill(p, ht)
	if rec.FirstFail == "" {
		rec.FirstFail = hu.firstFail
	}
	res := result{
		Correct:   u.c.Failed == 0 && p.c.Failed == 0,
		Attempted: u.c.Runs + p.c.Runs,
		Failed:    u.c.Failed + p.c.Failed,
		Metrics:   perLayer(p, u, ht, wt),
	}
	if diff := diffCounts(countsPerRun(u), countsPerRun(p)); diff != "" {
		res.Correct = false
		rec.Notes = append(rec.Notes, "traced counts differ from untraced counts: "+diff)
	}
	if f := res.Metrics["trace.unaccounted_frac"].Value; f > unaccountedBound {
		rec.Notes = append(rec.Notes, fmt.Sprintf("spans miss %.1f%% of job time, above the %.0f%% bound", 100*f, 100*unaccountedBound))
	}
	if cfg.traceOut != "" {
		if err := ht.tr.write(cfg.traceOut); err != nil {
			return result{}, rec, err
		}
	}
	return res, rec, nil
}

// setUp builds the workload and runs one untimed warm-up round, so that
// every pooled rig exists, registers are interned and arenas are filled.
func setUp(ctx context.Context, cfg config, h *harness) (workload, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, h)
	if err != nil {
		return nil, err
	}
	if _, err := h.round(ctx, w, cfg.seed); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// setups is the number of set-ups timed for setup_s.
const setups = 9

// timedSetup sets up setups times and keeps the last, returning the median
// set-up time in seconds.
func timedSetup(ctx context.Context, cfg config) (float64, workload, *harness, error) {
	var times []float64
	for i := 0; ; i++ {
		h := newHarness(false)
		start := time.Now()
		w, err := setUp(ctx, cfg, h)
		if err != nil {
			return 0, nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setups-1 {
			return median(times), w, h, nil
		}
		w.close()
	}
}

func (rec *record) fill(p phase, h *harness) {
	rec.Runs = p.c.Runs
	rec.Rounds = p.rounds
	rec.Windows = int(p.c.Runs / runWindow)
	rec.FirstFail = h.firstFail
	if rec.Windows == 0 {
		rec.Notes = append(rec.Notes, fmt.Sprintf("fewer than %d runs: the 99th percentile leaves fewer than 10 samples beyond it", runWindow))
	}
}

func endToEnd(p phase, setup float64) map[string]metric {
	runs := float64(p.c.Runs)
	wall := p.wall.Seconds()
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"runs_per_s":       {runs / wall, "runs/s"},
		"steps_per_s":      {float64(p.c.Steps) / wall, "steps/s"},
		"run_p50_ms":       {p.runP50 / 1e6, "ms"},
		"run_p99_ms":       {p.runP99 / 1e6, "ms"},
		"cpu_us_per_run":   {float64(p.cpu.Microseconds()) / runs, "us"},
		"alloc_kb_per_run": {float64(p.alloc) / 1024 / runs, "KiB"},
		"max_rss_mb":       {maxRSSMiB(), "MiB"},
	}
}

// countsPerRun is the deterministic part of a phase, per run: it depends on
// the inputs only, not on the phase's length or tracing.
func countsPerRun(p phase) map[string]float64 {
	runs := float64(p.c.Runs)
	c := p.c
	per := func(v int64) float64 { return float64(v) / runs }
	return map[string]float64{
		"runs.failed":             per(c.Failed),
		"campaign.jobs":           per(c.Jobs),
		"sched.sources":           per(c.Sources),
		"sim.steps":               per(c.Steps),
		"sim.reads":               per(c.Reads),
		"sim.writes":              per(c.Writes),
		"sim.noops":               per(c.Noops),
		"sim.sends":               per(c.Sends),
		"sim.recvs":               per(c.Recvs),
		"sim.registers":           float64(c.Registers),
		"sim.resets":              per(c.Resets),
		"check.calls":             per(c.Checks),
		"kset.decided_runs":       per(c.Decided),
		"kset.decide_steps_p50":   histPercentile(p.decide, 0.50),
		"kset.decide_steps_p99":   histPercentile(p.decide, 0.99),
		"bg.halted_sims":          per(c.Halted),
		"msgnet.sent":             per(c.Sent),
		"msgnet.delivered":        per(c.Delivered),
		"msgnet.in_flight_max":    float64(c.InFlightMax),
		"snapshot.segments_new":   per(c.SegNew),
		"snapshot.segments_reuse": per(c.SegReused),
		"snapshot.leases_new":     per(c.LeaseNew),
		"snapshot.leases_reuse":   per(c.LeaseReuse),
		"snapshot.reclaimed":      per(c.Reclaimed),
		"snapshot.dropped":        per(c.Dropped),
	}
}

// diffCounts lists the keys on which two count maps differ.
func diffCounts(a, b map[string]float64) string {
	var diffs []string
	for k, v := range a {
		if b[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s %v≠%v", k, v, b[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}

// perLayer assembles the per-layer metrics of the traced phase p; u is the
// untraced phase of the same run.
func perLayer(p, u phase, h *harness, w workload) map[string]metric {
	t := h.tr
	c := p.c
	runs := float64(c.Runs)
	cnt := countsPerRun(p)
	secPerRun := func(ns float64) float64 { return ns / 1e9 / runs }
	self := func(l layer) float64 { return float64(t.self[l]) }
	hooks := h.dirNext.estimateNs() + h.dirWrite.estimateNs() + h.deliver.estimateNs()
	simRun := max(self(lSimRun)-hooks, 0)
	jobNs := float64(t.total[lJob])
	var covered float64
	for l := lSchedBuild; l < nLayers; l++ {
		covered += self(l)
	}
	tracedRPS := runs / p.wall.Seconds()
	untracedRPS := float64(u.c.Runs) / u.wall.Seconds()

	m := map[string]metric{
		"sched.sources":     {cnt["sched.sources"], "count/run"},
		"sched.build_s":     {secPerRun(self(lSchedBuild)), "s/run"},
		"sched.steps":       {float64(h.schedSteps) / runs, "steps/run"},
		"sched.busy_s":      {secPerRun(self(lSchedNext)), "s/run"},
		"sched.ns_per_step": {ratio(self(lSchedNext), float64(h.schedSteps)), "ns/step"},

		"sim.steps":       {cnt["sim.steps"], "steps/run"},
		"sim.reads":       {cnt["sim.reads"], "count/run"},
		"sim.writes":      {cnt["sim.writes"], "count/run"},
		"sim.noops":       {cnt["sim.noops"], "count/run"},
		"sim.sends":       {cnt["sim.sends"], "count/run"},
		"sim.recvs":       {cnt["sim.recvs"], "count/run"},
		"sim.registers":   {cnt["sim.registers"], "count"},
		"sim.noop_frac":   {ratio(float64(c.Noops), float64(c.Steps)), "ratio"},
		"sim.run_s":       {secPerRun(simRun), "s/run"},
		"sim.ns_per_step": {ratio(simRun, float64(c.Steps)), "ns/step"},
		"sim.resets":      {cnt["sim.resets"], "count/run"},
		"sim.reset_s":     {secPerRun(self(lSimReset)), "s/run"},

		"kset.decided_runs":     {cnt["kset.decided_runs"], "ratio"},
		"kset.decide_steps_p50": {cnt["kset.decide_steps_p50"], "steps"},
		"kset.decide_steps_p99": {cnt["kset.decide_steps_p99"], "steps"},
		"kset.reset_s":          {secPerRun(self(lKsetReset)), "s/run"},
		"kset.poll_s":           {secPerRun(self(lKsetPoll)), "s/run"},

		"bg.reset_s":     {secPerRun(self(lBGReset)), "s/run"},
		"bg.halted_sims": {cnt["bg.halted_sims"], "count/run"},

		"snapshot.segments_new":       {cnt["snapshot.segments_new"], "count/run"},
		"snapshot.segment_reuse_frac": {ratio(float64(c.SegReused), float64(c.SegReused+c.SegNew)), "ratio"},
		"snapshot.lease_reuse_frac":   {ratio(float64(c.LeaseReuse), float64(c.LeaseReuse+c.LeaseNew)), "ratio"},
		"snapshot.reclaimed":          {cnt["snapshot.reclaimed"], "count/run"},
		"snapshot.dropped":            {cnt["snapshot.dropped"], "count/run"},

		"adversary.reset_s":     {secPerRun(self(lAdvReset)), "s/run"},
		"adversary.writes_seen": {float64(h.dirWrite.calls) / runs, "count/run"},
		"adversary.next_calls":  {float64(h.dirNext.calls) / runs, "count/run"},
		"adversary.busy_s":      {secPerRun(h.dirNext.estimateNs() + h.dirWrite.estimateNs()), "s/run"},

		"msgnet.sent":            {cnt["msgnet.sent"], "count/run"},
		"msgnet.delivered":       {cnt["msgnet.delivered"], "count/run"},
		"msgnet.empty_recv_frac": {ratio(float64(c.Recvs-c.Delivered), float64(c.Recvs)), "ratio"},
		"msgnet.in_flight_max":   {cnt["msgnet.in_flight_max"], "count"},
		"msgnet.reseed_s":        {secPerRun(self(lNetReseed)), "s/run"},

		"obs.observe_s":     {secPerRun(h.deliver.estimateNs()), "s/run"},
		"obs.observe_calls": {float64(h.deliver.calls) / runs, "count/run"},
		"obs.reset_s":       {secPerRun(self(lObsReset)), "s/run"},
		"obs.snapshot_s":    {secPerRun(self(lObsSnapshot)), "s/run"},

		"check.calls":       {cnt["check.calls"], "count/run"},
		"check.busy_s":      {secPerRun(self(lCheck)), "s/run"},
		"check.us_per_call": {ratio(self(lCheck), float64(t.calls[lCheck])) / 1e3, "us"},

		"campaign.jobs":          {cnt["campaign.jobs"], "jobs/run"},
		"campaign.job_s":         {secPerRun(jobNs), "s/run"},
		"campaign.fold_s":        {secPerRun(self(lRound)), "s/run"},
		"campaign.overhead_frac": {ratio(self(lRound), float64(t.total[lRound])), "ratio"},
		"campaign.pool_builds":   {float64(w.poolBuilds()), "count"},

		"trace.coverage_frac":       {ratio(covered, jobNs), "ratio"},
		"trace.unaccounted_frac":    {ratio(self(lJob)+self(lRun), jobNs), "ratio"},
		"trace.runs_per_s":          {tracedRPS, "runs/s"},
		"trace.untraced_runs_per_s": {untracedRPS, "runs/s"},
		"trace.overhead_ratio":      {ratio(untracedRPS, tracedRPS), "ratio"},
		"trace.spans_per_run":       {ratio(float64(sumCalls(t)), runs), "count/run"},
	}
	return m
}

func sumCalls(t *tracer) int64 {
	var n int64
	for _, c := range t.calls {
		n += c
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nearestRank is the nearest-rank q-quantile of the sorted values s.
func nearestRank(s []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

// histPercentile is the nearest-rank q-quantile of the values counted in h
// (0 for none).
func histPercentile(h map[int64]int64, q float64) float64 {
	var total int64
	for _, n := range h {
		total += n
	}
	rank := int64(math.Ceil(q * float64(total)))
	for _, v := range slices.Sorted(maps.Keys(h)) {
		if rank -= h[v]; rank <= 0 {
			return float64(v)
		}
	}
	return 0
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// printTable writes the human-readable summary.
func printTable(f *os.File, rec record, res result) {
	fmt.Fprintf(f, "perfbench %s seed=%d trace=%v: %d runs in %d rounds (%d windows of %d), %d of %d attempted failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Runs, rec.Rounds, rec.Windows, runWindow, res.Failed, res.Attempted)
	fmt.Fprintf(f, "  %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", rec.CPUModel, rec.NProc, rec.GOMAXPROCS, rec.GoVersion, rec.Commit)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "  %-30s %14.6g %s\n", "failed_frac", rec.FailedFrac, "ratio")
	for _, k := range names {
		fmt.Fprintf(f, "  %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if rec.FirstFail != "" {
		fmt.Fprintf(f, "  first failure: %s\n", rec.FirstFail)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(f, "  note: %s\n", n)
	}
}
