package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/explore"
)

// TestMain lets the test binary double as a stm-campaign worker process: the
// coordinator spawns os.Executable() with EnvWorker set and argv
// [exe, subcommand, flags...], exactly like the installed binary.
func TestMain(m *testing.M) {
	if os.Getenv(campaign.EnvWorker) == "1" {
		runWorker()
		return // unreachable: runWorker exits
	}
	os.Exit(m.Run())
}

// runCmd runs one subcommand through the table's driver, as main does.
func runCmd(name string, args []string, w io.Writer) error {
	err, known := dispatch(context.Background(), name, args, w)
	if !known {
		return fmt.Errorf("no subcommand %q", name)
	}
	return err
}

func TestParseRange(t *testing.T) {
	t.Parallel()
	lo, hi, err := parseRange("2")
	if err != nil || lo != 2 || hi != 2 {
		t.Errorf("parseRange(2) = %d,%d,%v", lo, hi, err)
	}
	lo, hi, err = parseRange("1:3")
	if err != nil || lo != 1 || hi != 3 {
		t.Errorf("parseRange(1:3) = %d,%d,%v", lo, hi, err)
	}
	if _, _, err := parseRange("3:1"); err == nil {
		t.Error("empty range accepted")
	}
	if _, _, err := parseRange("x"); err == nil {
		t.Error("junk accepted")
	}
}

func TestParseCrashPatterns(t *testing.T) {
	t.Parallel()
	patterns, err := parseCrashPatterns("p1@3;p2@0,p4@9")
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 2 || patterns[0][1] != 3 || patterns[1][2] != 0 || patterns[1][4] != 9 {
		t.Errorf("patterns = %v", patterns)
	}
	if got, err := parseCrashPatterns(""); err != nil || got != nil {
		t.Errorf("empty spec = %v, %v", got, err)
	}
	if _, err := parseCrashPatterns("p1=3"); err == nil {
		t.Error("bad entry accepted")
	}
}

// TestFailedRoutesReport pins the shared violation/failure tail: the report
// line goes to stdout, or to stderr under -json so stdout stays parseable;
// the summary follows on stdout either way, and the campaign fails with the
// given message (or with the summary's own error).
func TestFailedRoutesReport(t *testing.T) {
	t.Parallel()
	for _, jsonOut := range []bool{false, true} {
		var stdout, stderr bytes.Buffer
		err := failed(&stdout, &stderr, jsonOut, "VIOLATION after 3 runs: boom",
			func() error { stdout.WriteString("{\"summary\":1}\n"); return nil }, "fuzz campaign found a violation")
		if err == nil || err.Error() != "fuzz campaign found a violation" {
			t.Errorf("json=%v: err = %v", jsonOut, err)
		}
		wantOut, wantErr := "VIOLATION after 3 runs: boom\n{\"summary\":1}\n", ""
		if jsonOut {
			wantOut, wantErr = "{\"summary\":1}\n", "VIOLATION after 3 runs: boom\n"
		}
		if stdout.String() != wantOut || stderr.String() != wantErr {
			t.Errorf("json=%v: stdout %q stderr %q, want %q and %q", jsonOut, stdout.String(), stderr.String(), wantOut, wantErr)
		}
	}
	emitErr := errors.New("encode failed")
	if err := failed(io.Discard, io.Discard, true, "x", func() error { return emitErr }, "m"); err != emitErr {
		t.Errorf("summary error not returned: %v", err)
	}
}

func TestMatrixCampaignSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := runCmd("matrix", []string{"-t", "1", "-k", "1", "-n", "2",
		"-posbudget", "500000", "-negbudget", "20000", "-workers", "2", "-json"}, &out)
	if err != nil {
		t.Fatalf("matrix campaign failed: %v\noutput: %s", err, out.String())
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if rec.Campaign != "matrix" || rec.Summary.Jobs != 3 || rec.Summary.Failed != 0 {
		t.Errorf("record = %+v", rec)
	}
}

func TestFuzzCampaignSmokeWithJSONL(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "fuzz.jsonl")
	var out bytes.Buffer
	err := runCmd("fuzz", []string{"-target", "commitadopt", "-n", "3", "-steps", "60",
		"-schedules", "40", "-crashes", "p1@3", "-workers", "2", "-json", "-jsonl", path}, &out)
	if err != nil {
		t.Fatalf("fuzz campaign failed: %v\noutput: %s", err, out.String())
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if rec.Summary.Tallies["runs"] != 40 {
		t.Errorf("runs = %d, want 40", rec.Summary.Tallies["runs"])
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "{") {
			t.Errorf("non-JSON line: %s", sc.Text())
		}
		lines++
	}
	if lines != rec.Summary.Completed {
		t.Errorf("jsonl lines = %d, completed = %d", lines, rec.Summary.Completed)
	}
}

func TestConvergeCampaignSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := runCmd("converge", []string{"-n", "3", "-k", "1", "-t", "1", "-trials", "3", "-workers", "2", "-json"}, &out)
	if err != nil {
		t.Fatalf("converge campaign failed: %v\noutput: %s", err, out.String())
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if rec.Summary.Verdicts["stable"] != 3 {
		t.Errorf("verdicts = %v", rec.Summary.Verdicts)
	}
}

func TestAdversarialCampaignSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := runCmd("adversarial", []string{"-n", "3", "-runs", "6", "-steps", "20000", "-workers", "2", "-json"}, &out)
	if err != nil {
		t.Fatalf("adversarial campaign failed: %v\noutput: %s", err, out.String())
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if rec.Summary.Tallies["starved"] != 6 {
		t.Errorf("tallies = %v, want 6 starved runs", rec.Summary.Tallies)
	}
}

func TestRelationsCampaignSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := runCmd("relations", []string{"-n", "3", "-steps", "200", "-schedules", "8", "-workers", "2"}, &out)
	if err != nil {
		t.Fatalf("relations campaign failed: %v\noutput: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "S^1_{1,3}") {
		t.Errorf("relations table missing:\n%s", out.String())
	}
}

// TestUnknownTargetRejected pins the target-table error on every
// subcommand that takes -target: the table lookup's message, and no -jsonl
// stream file left behind.
func TestUnknownTargetRejected(t *testing.T) {
	t.Parallel()
	_, want := explore.LookupTarget("nope")
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"fuzz", nil},
		{"exhaustive", []string{"-reduce=false"}},
		{"byzantine", nil},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".jsonl")
		var out bytes.Buffer
		err := runCmd(tc.name, append([]string{"-target", "nope", "-jsonl", path}, tc.extra...), &out)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: error = %v, want %v", tc.name, err, want)
		}
		if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
			t.Errorf("%s: -jsonl file left behind (stat: %v)", tc.name, serr)
		}
	}
}

// TestCampaignJSONDeterministicAcrossWorkers drives the CLI end to end: the
// -json summary (elapsed stripped) must be identical at -workers 1 and 8.
func TestCampaignJSONDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	summary := func(workers string) string {
		var out bytes.Buffer
		err := runCmd("relations", []string{"-n", "3", "-steps", "200", "-schedules", "10",
			"-seed", "5", "-workers", workers, "-json"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		s, err := json.Marshal(rec.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return string(s)
	}
	if s1, s8 := summary("1"), summary("8"); s1 != s8 {
		t.Errorf("summaries differ:\nworkers=1: %s\nworkers=8: %s", s1, s8)
	}
}

func TestMonitorSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	// Non-multiple of -every exercises both the periodic and the final print;
	// the command itself cross-checks the monitor against the batch extractor
	// and fails on any mismatch.
	err := runCmd("monitor", []string{"-n", "4", "-steps", "1500", "-every", "700", "-window", "128", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verified against the batch extractor") {
		t.Fatalf("missing verification line in output:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "timeliness graph after"); got != 3 {
		t.Fatalf("got %d periodic graphs, want 3 (after 700, 1400, 1500)", got)
	}
}

func TestMonitorJSON(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := runCmd("monitor", []string{"-n", "3", "-gen", "random", "-steps", "600", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Campaign string `json:"campaign"`
		Steps    int    `json:"steps"`
		Graph    []struct {
			I        int `json:"i"`
			J        int `json:"j"`
			MinBound int `json:"min_bound"`
		} `json:"graph"`
	}
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if rec.Campaign != "monitor" || rec.Steps != 600 || len(rec.Graph) != 6 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestMonitorRejectsBadFlags(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := runCmd("monitor", []string{"-n", "7"}, &out); err == nil {
		t.Error("n=7 accepted (full family tracking is bounded at 6)")
	}
	if err := runCmd("monitor", []string{"-gen", "bogus"}, &out); err == nil {
		t.Error("bogus generator accepted")
	}
}

// fuzzSummary runs fuzz with the given extra flags prepended to a fixed
// base invocation and returns the marshaled -json Summary (deterministic:
// no wall-clock fields).
func fuzzSummary(t *testing.T, extra ...string) string {
	t.Helper()
	base := []string{"-target", "consensus", "-n", "3", "-steps", "60",
		"-schedules", "30", "-seed", "7", "-workers", "4", "-json"}
	var out bytes.Buffer
	err := runCmd("fuzz", append(extra, base...), &out)
	if err != nil {
		t.Fatalf("fuzz %v: %v\n%s", extra, err, out.String())
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	s, err := json.Marshal(rec.Summary)
	if err != nil {
		t.Fatal(err)
	}
	return string(s)
}

// TestFuzzCheckpointCrashResume is the tentpole end to end at the CLI layer:
// a chaos-crashed coordinator leaves a usable checkpoint (surfaced as
// InterruptedError), and the -resume rerun produces the same summary and the
// same -jsonl stream, byte for byte, as an uninterrupted run.
func TestFuzzCheckpointCrashResume(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	plainJSONL := filepath.Join(dir, "plain.jsonl")
	want := fuzzSummary(t, "-jsonl", plainJSONL)

	ck := filepath.Join(dir, "ck.jsonl")
	base := []string{"-target", "consensus", "-n", "3", "-steps", "60",
		"-schedules", "30", "-seed", "7", "-workers", "4", "-json"}
	var out bytes.Buffer
	err := runCmd("fuzz", append([]string{"-checkpoint", ck, "-chaos", "trunc@9"}, base...), &out)
	var ie *campaign.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("chaos run returned %v, want InterruptedError", err)
	}
	if !ie.Injected || ie.Checkpoint != ck {
		t.Fatalf("InterruptedError = %+v", ie)
	}

	resumedJSONL := filepath.Join(dir, "resumed.jsonl")
	got := fuzzSummary(t, "-checkpoint", ck, "-resume", "-jsonl", resumedJSONL)
	if got != want {
		t.Errorf("resumed summary diverges:\n%s\nvs\n%s", got, want)
	}
	a, err := os.ReadFile(plainJSONL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumedJSONL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("resumed -jsonl stream is not byte-identical to the plain run (%d vs %d bytes)", len(a), len(b))
	}
}

// TestFuzzSelfHealingBitIdentical: worker kills and stalled jobs are healed
// by the coordinator (requeue + respawn) without changing the aggregate.
func TestFuzzSelfHealingBitIdentical(t *testing.T) {
	t.Parallel()
	want := fuzzSummary(t)
	got := fuzzSummary(t, "-chaos", "kill@5;stall@3~400ms", "-lease", "120ms", "-retries", "4")
	if got != want {
		t.Errorf("chaos-healed summary diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestFuzzProcWorkersBitIdentical dispatches to child worker processes (the
// test binary re-exec'd via TestMain) and must match the in-process run.
func TestFuzzProcWorkersBitIdentical(t *testing.T) {
	t.Parallel()
	want := fuzzSummary(t)
	got := fuzzSummary(t, "-procs", "2")
	if got != want {
		t.Errorf("-procs 2 summary diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestFuzzProcWorkersSurviveKills: a fault plan that repeatedly kills child
// processes mid-campaign still converges to the same summary.
func TestFuzzProcWorkersSurviveKills(t *testing.T) {
	t.Parallel()
	want := fuzzSummary(t)
	got := fuzzSummary(t, "-procs", "2", "-chaos", "kill@4", "-lease", "10s")
	if got != want {
		t.Errorf("killed-proc summary diverges:\n%s\nvs\n%s", got, want)
	}
}

func TestResilienceFlagValidation(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := runCmd("fuzz", []string{"-resume", "-schedules", "4"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Errorf("-resume without -checkpoint: %v", err)
	}
	err = runCmd("fuzz", []string{"-chaos", "explode@3", "-schedules", "4"}, &out)
	if err == nil {
		t.Error("bad -chaos plan accepted")
	}
	err = runCmd("exhaustive", []string{"-checkpoint", filepath.Join(t.TempDir(), "ck"), "-depth", "3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-reduce=false") {
		t.Errorf("reduced exhaustive with -checkpoint: %v", err)
	}
}

func TestResumeCommand(t *testing.T) {
	old := os.Args
	defer func() { os.Args = old }()
	os.Args = []string{"stm-campaign", "fuzz", "-checkpoint", "ck.jsonl"}
	if got, want := resumeCommand(), "stm-campaign fuzz -checkpoint ck.jsonl -resume"; got != want {
		t.Errorf("resumeCommand() = %q, want %q", got, want)
	}
	os.Args = []string{"stm-campaign", "fuzz", "-checkpoint", "ck.jsonl", "-resume"}
	if got := resumeCommand(); strings.Count(got, "-resume") != 1 {
		t.Errorf("resumeCommand() duplicated -resume: %q", got)
	}
}

func TestCheckDegraded(t *testing.T) {
	t.Parallel()
	if err := checkDegraded(&campaign.Report{}); err != nil {
		t.Errorf("clean report flagged degraded: %v", err)
	}
	rep := &campaign.Report{Quarantined: []campaign.QuarantineRecord{
		{Job: 3, Name: "poison", Attempts: 4, LastErr: "lease expired after 30ms (attempt 3)"},
	}}
	err := checkDegraded(rep)
	var de *degradedError
	if !errors.As(err, &de) {
		t.Fatalf("checkDegraded = %v, want degradedError", err)
	}
	for _, frag := range []string{"quarantined", "job 3", "poison", "lease expired"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("degraded message lacks %q: %s", frag, err)
		}
	}
}

// A campaign run with -pprof brings the debug endpoints up for its duration
// and shuts them down on exit; the run result must be unaffected.
func TestPprofFlagSmoke(t *testing.T) {
	var plain, instrumented bytes.Buffer
	args := []string{"-n", "3", "-schedules", "6", "-steps", "200", "-json"}
	if err := runCmd("relations", args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := runCmd("relations", append([]string{"-pprof", "127.0.0.1:0"}, args...), &instrumented); err != nil {
		t.Fatal(err)
	}
	var p, i map[string]json.RawMessage
	if err := json.Unmarshal(plain.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(instrumented.Bytes(), &i); err != nil {
		t.Fatal(err)
	}
	if string(p["summary"]) != string(i["summary"]) {
		t.Fatalf("-pprof changed the summary:\n%s\n%s", p["summary"], i["summary"])
	}
}

// goldenCases pin each subcommand's stdout, recorded from the CLI before
// its subcommands moved into one table: testdata/<file>.txt is the human
// output with the wall-clock "(workers=W, X.XXXs)" masked, and
// testdata/<file>.json the -json output with elapsed_ns zeroed.
var goldenCases = []struct {
	file, sub string
	args      []string
}{
	{"matrix", "matrix", []string{"-t", "1", "-k", "1", "-n", "2", "-posbudget", "500000", "-negbudget", "20000", "-workers", "2"}},
	{"fuzz", "fuzz", []string{"-target", "consensus", "-n", "3", "-steps", "60", "-schedules", "20", "-seed", "7", "-workers", "2"}},
	{"exhaustive", "exhaustive", []string{"-target", "commitadopt", "-n", "2", "-depth", "6"}},
	{"exhaustive-full", "exhaustive", []string{"-target", "commitadopt", "-n", "2", "-depth", "6", "-reduce=false", "-workers", "2"}},
	{"converge", "converge", []string{"-n", "3", "-k", "1", "-t", "1", "-trials", "3", "-workers", "2"}},
	{"relations", "relations", []string{"-n", "3", "-steps", "200", "-schedules", "8", "-workers", "2"}},
	{"adversarial", "adversarial", []string{"-n", "3", "-runs", "4", "-steps", "20000", "-workers", "2", "-flight", "16"}},
	{"byzantine", "byzantine", []string{"-target", "consensus", "-n", "3", "-crash", "0:1", "-byz", "0:1", "-runs", "4", "-steps", "5000", "-flight", "16", "-workers", "2"}},
	{"netconv", "netconv", []string{"-n", "3", "-runs", "4", "-steps", "2000", "-workers", "2"}},
	{"monitor", "monitor", []string{"-n", "3", "-steps", "600", "-every", "250", "-window", "64", "-seed", "3"}},
}

var (
	wallClock = regexp.MustCompile(`\(workers=\d+, \d+\.\d{3}s\)`)
	elapsedNS = regexp.MustCompile(`"elapsed_ns":\d+`)
)

func TestGoldenOutput(t *testing.T) {
	t.Parallel()
	covered := make(map[string]bool)
	for _, gc := range goldenCases {
		covered[gc.sub] = true
		for _, mode := range []struct {
			ext  string
			args []string
			mask func([]byte) []byte
		}{
			{".txt", gc.args, func(b []byte) []byte { return wallClock.ReplaceAll(b, []byte("(workers=W, X.XXXs)")) }},
			{".json", slices.Concat(gc.args, []string{"-json"}), func(b []byte) []byte { return elapsedNS.ReplaceAll(b, []byte(`"elapsed_ns":0`)) }},
		} {
			t.Run(gc.file+mode.ext, func(t *testing.T) {
				t.Parallel()
				want, err := os.ReadFile(filepath.Join("testdata", gc.file+mode.ext))
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := runCmd(gc.sub, mode.args, &out); err != nil {
					t.Fatalf("%s %v: %v", gc.sub, mode.args, err)
				}
				if got := mode.mask(out.Bytes()); !bytes.Equal(got, want) {
					t.Errorf("%s %v: output differs from the golden\ngot:\n%s\nwant:\n%s", gc.sub, mode.args, got, want)
				}
			})
		}
	}
	for _, sc := range subcommands {
		if !covered[sc.name] {
			t.Errorf("subcommand %s has no golden case", sc.name)
		}
	}
}

// TestBadFlagReturnsUsageError: a flag no entry knows, and -h, come back
// from the driver as a *usageError instead of exiting the process.
func TestBadFlagReturnsUsageError(t *testing.T) {
	t.Parallel()
	for _, sc := range subcommands {
		for _, arg := range []string{"-no-such-flag", "-h"} {
			err := runCmd(sc.name, []string{arg}, io.Discard)
			var ue *usageError
			if !errors.As(err, &ue) {
				t.Errorf("%s %s: error = %v, want a usage error", sc.name, arg, err)
			} else if help := errors.Is(ue.err, flag.ErrHelp); help != (arg == "-h") {
				t.Errorf("%s %s: usage error %v", sc.name, arg, ue.err)
			}
		}
	}
}

// TestMisuseRejected: flags a subcommand would ignore are refused (usage
// errors for flags it does not register, errors for the reduced sweep's
// engine flags), and out-of-range counts fail with an error instead of a
// panic or an empty campaign. A refused -jsonl leaves no file behind.
func TestMisuseRejected(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "out.jsonl")
	reduced := []string{"exhaustive", "-target", "consensus", "-n", "2", "-depth", "6"}
	for _, tc := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"monitor", "-n", "3", "-steps", "100", "-checkpoint", filepath.Join(dir, "ck.jsonl")}, true},
		{[]string{"monitor", "-n", "3", "-steps", "100", "-jsonl", jsonl}, true},
		{[]string{"monitor", "-n", "3", "-steps", "100", "-procs", "2"}, true},
		{[]string{"monitor", "-n", "3", "-steps", "100", "-workers", "2"}, true},
		{slices.Concat(reduced, []string{"-jsonl", jsonl}), false},
		{slices.Concat(reduced, []string{"-workers", "3"}), false},
		{slices.Concat(reduced, []string{"-progress", "1"}), false},
		{[]string{"fuzz", "-schedules", "4", "-flight", "32"}, true},
		{[]string{"converge", "-trials", "2", "-flight", "32"}, true},
		{[]string{"matrix", "-flight", "32"}, true},
		{[]string{"relations", "-flight", "32"}, true},
		{[]string{"netconv", "-flight", "32"}, true},
		{[]string{"exhaustive", "-reduce=false", "-flight", "32"}, true},
		{[]string{"monitor", "-flight", "32"}, true},
		{[]string{"converge", "-n", "3", "-k", "1", "-t", "1", "-trials", "-2"}, false},
		{[]string{"converge", "-n", "3", "-k", "1", "-t", "1", "-trials", "0"}, false},
		{[]string{"converge", "-n", "3", "-k", "1", "-t", "1", "-trials", "2", "-maxsteps", "-1"}, false},
		{[]string{"relations", "-n", "3", "-schedules", "-1"}, false},
		{[]string{"relations", "-n", "3", "-schedules", "0"}, false},
		{[]string{"relations", "-n", "3", "-schedules", "2", "-steps", "-5"}, false},
		{[]string{"relations", "-n", "3", "-schedules", "2", "-bound", "-1"}, false},
		{[]string{"fuzz", "-schedules", "-1"}, false},
		{[]string{"fuzz", "-schedules", "0"}, false},
		{[]string{"fuzz", "-schedules", "2", "-steps", "-4"}, false},
		{[]string{"fuzz", "-schedules", "2", "-steps", "0"}, false},
	} {
		err := runCmd(tc.args[0], tc.args[1:], io.Discard)
		var ue *usageError
		if err == nil || errors.As(err, &ue) != tc.usage {
			t.Errorf("%v: error = %v, want a usage error: %v", tc.args, err, tc.usage)
		}
		if _, serr := os.Stat(jsonl); !errors.Is(serr, os.ErrNotExist) {
			t.Errorf("%v: -jsonl file left behind (stat: %v)", tc.args, serr)
			os.Remove(jsonl)
		}
	}
}
