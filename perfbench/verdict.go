package main

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/check"
	"github.com/settimeliness/settimeliness/internal/msgnet"
)

// The classifiers hold each run against what the paper guarantees for its
// workload. A run that contradicts the guarantee counts as failed.

// classifyAgreement: with at most t crashes in its matching system the
// Theorem 24 solver decides on every correct process, validly and with at
// most k distinct values.
func classifyAgreement(run check.AgreementRun, decided bool) (bool, string) {
	if !decided {
		return false, "agreement: undecided within the step budget"
	}
	if err := run.Verify(); err != nil {
		return false, "agreement: " + err.Error()
	}
	return true, "decided"
}

// classifySeparation: under the parking adversary no process decides within
// the horizon, and both safety properties hold. It returns the campaign
// verdict ("starved", "decided" or "violation") and whether it is expected.
func classifySeparation(decided bool, safety []error) (string, bool) {
	switch {
	case len(safety) > 0:
		return "violation", false
	case decided:
		return "decided", false
	}
	return "starved", true
}

// classifyBG: the target's safety check passes on every schedule.
func classifyBG(checkErr error) (bool, string) {
	if checkErr != nil {
		return false, "bg-reduction: " + checkErr.Error()
	}
	return true, "ok"
}

// classifyNetconv: on the sync and psync matrices every process agrees on
// one leader by the horizon. Runs on async and mixed carry no guarantee.
func classifyNetconv(matrix string, converged bool) (bool, string) {
	if converged || (matrix != msgnet.MatrixSync && matrix != msgnet.MatrixPartialSync) {
		return true, "converged"
	}
	return false, fmt.Sprintf("netconv: split on the %s matrix", matrix)
}
