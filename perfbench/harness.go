package main

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// counts are the tallies a measured phase accumulates. Every field is fixed
// by the workload's inputs, so two phases over the same inputs give the same
// counts per run whatever their length or tracing.
type counts struct {
	Runs, Failed, Jobs   int64
	Steps, Reads, Writes int64
	Noops, Sends, Recvs  int64
	Registers            int64 // largest interned register set seen
	Resets, Checks       int64
	Sources              int64
	Decided              int64
	Sent, Delivered      int64
	InFlightMax          int64 // largest in-flight gauge seen at a run's end
	Halted               int64 // simulators halted at the end of bg runs
	SegNew, SegReused    int64
	LeaseNew, LeaseReuse int64
	Reclaimed, Dropped   int64
}

func (c *counts) addStats(s sim.Stats) {
	c.Steps += s.Steps
	c.Reads += s.Reads
	c.Writes += s.Writes
	c.Noops += s.Noops
	c.Sends += s.Sends
	c.Recvs += s.Recvs
	c.Registers = max(c.Registers, s.Registers)
}

// harness is the glue shared by the workloads: it times runs, tallies their
// counters and verdicts, and records spans when a tracer is set.
type harness struct {
	tr      *tracer // nil in the untraced mode
	runners []*sim.Runner

	c         counts
	firstFail string
	runID     int32

	// Run times are summarised per window of runWindow consecutive runs, so
	// the harness's memory does not grow with the number of runs.
	window         []int64 // CPU times of the current window's runs, ns
	winP50, winP99 []float64
	// decideSteps counts decided runs by the step at which they were seen
	// deciding.
	decideSteps map[int64]int64

	// Per-step hooks of the traced mode: the directed loop's director and
	// the network's delivery callback.
	dirNext, dirWrite, deliver sampler
	schedSteps                 int64
}

func newHarness(traced bool) *harness {
	h := &harness{}
	if traced {
		h.tr = newTracer()
	}
	h.clearTallies()
	return h
}

// source returns src, wrapped so that each NextBlock call is a span when
// tracing.
func (h *harness) source(src sched.Source) sched.Source {
	if h.tr == nil {
		return src
	}
	return &tracedSource{Source: src, h: h}
}

// tracedSource spans every block the run loop prefetches.
type tracedSource struct {
	sched.Source
	h *harness
}

func (s *tracedSource) NextBlock(dst []procset.ID) {
	sp := s.h.tr.begin(lSchedNext)
	sched.FillBlock(s.Source, dst)
	s.h.tr.end(sp)
	s.h.schedSteps += int64(len(dst))
}

// runToken carries the state of one run between beginRun and endRun.
type runToken struct {
	cpu0 time.Duration
	span int32
}

func (h *harness) beginRun() runToken {
	h.runID++
	if h.tr != nil {
		h.tr.run = h.runID
	}
	sp := h.tr.begin(lRun)
	// A run's time is the CPU time of the thread it runs on, so the run
	// stays on one thread. Time in which the host runs other work is not
	// counted: wall-clock percentiles on a shared host follow preemption.
	runtime.LockOSThread()
	return runToken{cpu0: threadCPU(), span: sp}
}

// endRun closes a run: its time, the runner's counters, and its verdict.
func (h *harness) endRun(tok runToken, r *sim.Runner, ok bool, why string) {
	h.window = append(h.window, int64(threadCPU()-tok.cpu0))
	runtime.UnlockOSThread()
	if len(h.window) == runWindow {
		h.closeWindow()
	}
	h.tr.end(tok.span)
	if h.tr != nil {
		h.tr.run = 0
	}
	h.c.addStats(r.Stats())
	h.c.Runs++
	h.c.Resets++
	h.c.Checks++
	if !ok {
		h.c.Failed++
		if h.firstFail == "" {
			h.firstFail = why
		}
	}
}

// runWindow is the number of consecutive runs whose times are summarised
// together; its 99th percentile leaves 10 samples beyond it.
const runWindow = 1000

// closeWindow records the current window's median and 99th percentile.
func (h *harness) closeWindow() {
	slices.Sort(h.window)
	h.winP50 = append(h.winP50, nearestRank(h.window, 0.50))
	h.winP99 = append(h.winP99, nearestRank(h.window, 0.99))
	h.window = h.window[:0]
}

// decided records a run seen deciding at step.
func (h *harness) decided(step int) {
	h.c.Decided++
	h.decideSteps[int64(step)]++
}

// clearTallies forgets everything recorded so far, keeping the rigs.
func (h *harness) clearTallies() {
	h.c = counts{}
	h.window = make([]int64, 0, runWindow)
	h.winP50, h.winP99 = nil, nil
	h.decideSteps = map[int64]int64{}
	h.firstFail = ""
	h.runID = 0
	h.dirNext, h.dirWrite, h.deliver = sampler{}, sampler{}, sampler{}
	h.schedSteps = 0
	if h.tr != nil {
		h.tr = newTracer()
	}
}

// arena sums the snapshot-arena counters of every rig's runner. They are
// cumulative over a runner's life, so phases take differences.
func (h *harness) arena() counts {
	var c counts
	m := make(map[string]int64)
	for _, r := range h.runners {
		clear(m)
		r.RecyclerStats(m)
		c.SegNew += m["arena.segments_new"]
		c.SegReused += m["arena.segments_reused"]
		c.LeaseNew += m["arena.leases_new"]
		c.LeaseReuse += m["arena.leases_reused"]
		c.Reclaimed += m["arena.reclaimed"]
		c.Dropped += m["arena.dropped"]
	}
	return c
}

// round runs one pass over the workload's jobs through the campaign engine
// with a single worker.
func (h *harness) round(ctx context.Context, w workload, seed int64) (*campaign.Report, error) {
	jobs := w.jobs()
	sp := h.tr.begin(lRound)
	rep, err := campaign.Run(ctx, campaign.Config{Workers: 1, Seed: seed}, jobs)
	h.tr.end(sp)
	if h.tr != nil {
		h.tr.fold()
	}
	if err != nil {
		return rep, err
	}
	if rep.Summary.Completed != len(jobs) {
		return rep, fmt.Errorf("round completed %d of %d jobs", rep.Summary.Completed, len(jobs))
	}
	h.c.Jobs += int64(len(jobs))
	return rep, nil
}

// phase is the record of one measured phase.
type phase struct {
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	rounds int
	c      counts
	// runP50 and runP99 are the medians over the run windows of each
	// window's percentiles; with no full window, the partial one's.
	runP50, runP99 float64
	decide         map[int64]int64
}

// meter measures the rounds of one harness and workload.
type meter struct {
	h    *harness
	w    workload
	seed int64
	a0   counts
	p    phase
}

// startMeter forgets the set-up's tallies and starts a phase.
func startMeter(h *harness, w workload, seed int64) *meter {
	h.clearTallies()
	return &meter{h: h, w: w, seed: seed, a0: h.arena()}
}

// round runs and times one round.
func (m *meter) round(ctx context.Context) error {
	start := time.Now()
	if _, err := m.h.round(ctx, m.w, m.seed); err != nil {
		return err
	}
	m.p.wall += time.Since(start)
	m.p.rounds++
	return nil
}

// finish closes the phase and returns its record.
func (m *meter) finish() phase {
	p := m.p
	a1 := m.h.arena()
	p.c = m.h.c
	p.c.SegNew = a1.SegNew - m.a0.SegNew
	p.c.SegReused = a1.SegReused - m.a0.SegReused
	p.c.LeaseNew = a1.LeaseNew - m.a0.LeaseNew
	p.c.LeaseReuse = a1.LeaseReuse - m.a0.LeaseReuse
	p.c.Reclaimed = a1.Reclaimed - m.a0.Reclaimed
	p.c.Dropped = a1.Dropped - m.a0.Dropped
	h := m.h
	if len(h.winP50) == 0 && len(h.window) > 0 {
		h.closeWindow()
	}
	p.runP50, p.runP99 = median(h.winP50), median(h.winP99)
	p.decide = maps.Clone(h.decideSteps)
	return p
}

// measure runs whole rounds until d has passed (at least one round) and
// returns what they did and cost.
func (h *harness) measure(ctx context.Context, w workload, seed int64, d time.Duration) (phase, error) {
	m := startMeter(h, w, seed)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	for m.p.rounds == 0 || m.p.wall < d {
		if err := m.round(ctx); err != nil {
			return phase{}, err
		}
	}
	p := m.finish()
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return p, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// maxRSSMiB is the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
