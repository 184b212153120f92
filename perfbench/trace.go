package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// layer names the span kinds the benchmark records. Each span wraps one
// call from the benchmark's own files into a layer of the repository.
type layer uint8

const (
	lRound       layer = iota // campaign.Run over one round of jobs
	lJob                      // one campaign job body
	lRun                      // the harness around one run (timing, tallies)
	lSchedBuild               // schedule source construction
	lSchedNext                // one NextBlock call through the traced source
	lSimReset                 // Runner.Reset
	lSimRun                   // Run, RunSchedule or the directed loop
	lKsetReset                // Agreement.Reset
	lKsetPoll                 // the stop predicate's DecidedSet poll
	lBGReset                  // the bg target's Reset
	lAdvReset                 // Adversary.ResetCrashed
	lNetReseed                // Net.Reseed
	lObsReset                 // LinkMonitor.Reset
	lObsSnapshot              // LinkMonitor.Snapshot
	lCheck                    // the run's verdict check
	nLayers
)

var layerNames = [nLayers]string{
	lRound:       "campaign.run",
	lJob:         "campaign.job",
	lRun:         "harness.run",
	lSchedBuild:  "sched.build",
	lSchedNext:   "sched.next_block",
	lSimReset:    "sim.reset",
	lSimRun:      "sim.run",
	lKsetReset:   "kset.reset",
	lKsetPoll:    "kset.poll",
	lBGReset:     "bg.reset",
	lAdvReset:    "adversary.reset",
	lNetReseed:   "msgnet.reseed",
	lObsReset:    "obs.reset",
	lObsSnapshot: "obs.snapshot",
	lCheck:       "check",
}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent is the index of the enclosing span in the same round (-1 for
// a round span) and run the harness run id (0 outside runs).
type span struct {
	start, end int64
	parent     int32
	run        int32
	layer      layer
}

// sampleEvery is the 1-in-N rate at which per-step hooks are timed.
const sampleEvery = 64

// sampler counts every call of a per-step hook and times a deterministic
// 1-in-sampleEvery subset of them. Each sample reads the clock three times:
// the first interval is empty and the second holds the call, so the sum of
// their differences estimates the calls' own time without the clock's cost.
type sampler struct {
	calls, sampled, callNs, emptyNs int64
}

// tick counts a call and reports whether this call is timed.
func (s *sampler) tick() bool {
	s.calls++
	return s.calls%sampleEvery == 0
}

// add records one sample: t0 and t1 bracket nothing, t1 and t2 the call.
func (s *sampler) add(t0, t1, t2 time.Time) {
	s.sampled++
	s.emptyNs += int64(t1.Sub(t0))
	s.callNs += int64(t2.Sub(t1))
}

// estimateNs scales the sampled time to all calls.
func (s *sampler) estimateNs() float64 {
	if s.sampled == 0 {
		return 0
	}
	return max(float64(s.callNs-s.emptyNs), 0) / float64(s.sampled) * float64(s.calls)
}

// tracer keeps the spans of the current round in memory. At the end of each
// round fold turns them into per-layer self and total times; the spans of
// the first round are retained and written out when the benchmark ends.
type tracer struct {
	epoch time.Time
	spans []span
	open  int32
	run   int32

	self, total [nLayers]int64
	calls       [nLayers]int64
	childBuf    []int64

	kept []span // the first round's spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span of layer l inside the innermost open span. A nil tracer
// records nothing, which is the untraced mode.
func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), parent: t.open, run: t.run, layer: l})
	t.open = id
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = t.now()
	t.open = s.parent
}

// fold accumulates the round's spans into per-layer times: a span's self
// time is its duration minus the durations of its direct children.
func (t *tracer) fold() {
	if cap(t.childBuf) < len(t.spans) {
		t.childBuf = make([]int64, len(t.spans))
	}
	child := t.childBuf[:len(t.spans)]
	clear(child)
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		t.self[s.layer] += d - child[i]
		t.total[s.layer] += d
		t.calls[s.layer]++
	}
	if t.kept == nil {
		t.kept = slices.Clone(t.spans)
	}
	t.spans = t.spans[:0]
	t.open = -1
}

// write stores the retained spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.kept {
		rec := struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Parent  int32  `json:"parent"`
			Run     int32  `json:"run"`
		}{i, layerNames[s.layer], s.start, s.end, s.parent, s.run}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
