package sim

import (
	"fmt"

	"omicon/internal/metrics"
)

// Result is the outcome of one execution.
type Result struct {
	// Adversary names the strategy that ran.
	Adversary string
	// Inputs are the input bits the execution started from.
	Inputs []int
	// Decisions holds each process's decision; -1 if it returned none.
	Decisions []int
	// TerminatedAt records the engine round count at which each process
	// returned (0 means before any communication phase).
	TerminatedAt []int
	// Corrupted marks the processes the adversary took over.
	Corrupted []bool
	// Metrics aggregates the three complexity measures of Section 2.
	Metrics metrics.Snapshot

	protocolErr error
}

// NonFaulty reports whether process p stayed outside adversarial control.
func (r *Result) NonFaulty(p int) bool { return !r.Corrupted[p] }

// NumCorrupted returns the number of corrupted processes.
func (r *Result) NumCorrupted() int {
	c := 0
	for _, b := range r.Corrupted {
		if b {
			c++
		}
	}
	return c
}

// RoundsNonFaulty returns the paper's time metric: the largest round count
// at which a non-faulty process terminated.
func (r *Result) RoundsNonFaulty() int {
	max := 0
	for p, rt := range r.TerminatedAt {
		if r.NonFaulty(p) && rt > max {
			max = rt
		}
	}
	return max
}

// Decision returns the common decision of the non-faulty processes, or an
// error if agreement or termination fails among them.
func (r *Result) Decision() (int, error) {
	if err := r.CheckAgreement(); err != nil {
		return -1, err
	}
	for p := range r.Decisions {
		if r.NonFaulty(p) {
			return r.Decisions[p], nil
		}
	}
	return -1, fmt.Errorf("sim: no non-faulty process exists")
}

// CheckAgreement verifies the Agreement and Termination conditions over
// non-faulty processes: all decided, all on the same value.
func (r *Result) CheckAgreement() error {
	want := -1
	for p, d := range r.Decisions {
		if !r.NonFaulty(p) {
			continue
		}
		if d < 0 {
			return fmt.Errorf("sim: non-faulty process %d did not decide", p)
		}
		if want == -1 {
			want = d
		} else if d != want {
			return fmt.Errorf("sim: non-faulty processes disagree: %d decided %d, expected %d", p, d, want)
		}
	}
	return nil
}

// CheckValidity verifies the Validity condition: if all non-faulty processes
// started with the same input b, they all decided b. (The paper's validity
// clause quantifies over non-faulty processes' inputs.)
func (r *Result) CheckValidity() error {
	common := -1
	for p, in := range r.Inputs {
		if !r.NonFaulty(p) {
			continue
		}
		if common == -1 {
			common = in
		} else if in != common {
			return nil // mixed inputs: validity is vacuous
		}
	}
	if common == -1 {
		return nil
	}
	for p, d := range r.Decisions {
		if r.NonFaulty(p) && d != common {
			return fmt.Errorf("sim: validity violated: unanimous input %d but process %d decided %d", common, p, d)
		}
	}
	return nil
}

// CheckConsensus runs all three consensus conditions.
func (r *Result) CheckConsensus() error {
	if err := r.CheckAgreement(); err != nil {
		return err
	}
	return r.CheckValidity()
}

// String summarizes the result in one line.
func (r *Result) String() string {
	d, err := r.Decision()
	status := fmt.Sprintf("decision=%d", d)
	if err != nil {
		status = "invalid: " + err.Error()
	}
	return fmt.Sprintf("%s corrupted=%d/%d rounds=%d %s adversary=%s",
		status, r.NumCorrupted(), len(r.Decisions), r.RoundsNonFaulty(), r.Metrics, r.Adversary)
}
