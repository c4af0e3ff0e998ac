package main

import (
	"fmt"

	"github.com/stellar-repro/stellar/internal/experiments"
)

// checks collects self-check failures. Any failure makes the run print
// "correct": false and exit non-zero.
type checks struct {
	failures []string
}

func (c *checks) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// outcome records a timed call's conservation-check result.
func (c *checks) outcome(o *outcome) {
	if o.err != nil {
		c.fail("%v", o.err)
	}
}

// sameDigest requires two simulated-result digests to match.
func (c *checks) sameDigest(what string, want, got string) {
	if want != got {
		c.fail("%s: simulated-result digest %s, want %s", what, got, want)
	}
}

// checkScale verifies request conservation in a scale series: every
// invocation was either recorded as a latency or counted as an error.
func checkScale(res *experiments.ScaleResult) error {
	if got := res.Recorder.Count() + res.Errors; got != res.Invocations {
		return fmt.Errorf("scale: %d recorded + errors, %d invocations", got, res.Invocations)
	}
	if res.Colds > res.Invocations {
		return fmt.Errorf("scale: %d colds exceed %d invocations", res.Colds, res.Invocations)
	}
	return nil
}

// checkCost verifies per-policy request conservation in a cost sweep, and
// that every policy replayed the same request stream.
func checkCost(res *experiments.CostResult) error {
	for i, p := range res.Points {
		if got := p.ColdServed + p.WarmServed + p.Errors; got != p.Invocations {
			return fmt.Errorf("cost: policy %s: cold %d + warm %d + errors %d = %d, want %d invocations",
				p.Policy, p.ColdServed, p.WarmServed, p.Errors, got, p.Invocations)
		}
		if i > 0 && p.Invocations != res.Points[0].Invocations {
			return fmt.Errorf("cost: policy %s replayed %d invocations, policy %s %d",
				p.Policy, p.Invocations, res.Points[0].Policy, res.Points[0].Invocations)
		}
	}
	return nil
}

// checkWorkflow verifies workflow and join-barrier conservation: every
// launched workflow completed or failed, and every barrier's started
// branches completed, were dropped as stragglers, or failed.
func checkWorkflow(res *experiments.WorkflowResult) error {
	if res.Completed+res.Failed != res.Workflows {
		return fmt.Errorf("workflow: completed %d + failed %d, want %d workflows",
			res.Completed, res.Failed, res.Workflows)
	}
	for i, b := range res.Barriers {
		if b.Started != b.Completed+b.Dropped+b.Failed {
			return fmt.Errorf("workflow: barrier %d: started %d != completed %d + dropped %d + failed %d",
				i, b.Started, b.Completed, b.Dropped, b.Failed)
		}
	}
	return nil
}
