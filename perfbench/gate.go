package main

import (
	"errors"
	"fmt"
	"reflect"

	"allforone/internal/model"
	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// allowedDecisions renders the scenario's proposals the way Outcome
// renders decisions, for the validity check.
func allowedDecisions(sc *protocol.Scenario) []string {
	if len(sc.Workload.Values) > 0 {
		return sc.Workload.Values
	}
	var out []string
	for _, v := range []model.Value{model.Zero, model.One} {
		for _, p := range sc.Workload.Binary {
			if p == v {
				out = append(out, v.String())
				break
			}
		}
	}
	return out
}

// decidedFrac is the share of live (not crashed) processes that decided.
func decidedFrac(out *protocol.Outcome) float64 {
	live := len(out.Procs) - out.CountStatus(sim.StatusCrashed)
	if live == 0 {
		return 1
	}
	return float64(out.CountStatus(sim.StatusDecided)) / float64(live)
}

// gate is the per-run correctness check: the run returned, was not cut
// short by a bound, kept agreement and validity, and decided on at least
// floor of its live processes.
func gate(sc *protocol.Scenario, out *protocol.Outcome, runErr error, floor float64) error {
	if runErr != nil {
		return runErr
	}
	if out.BoundedOut() {
		return errors.New("run bounded out")
	}
	if err := out.CheckAgreement(); err != nil {
		return err
	}
	if err := out.CheckValidity(allowedDecisions(sc)); err != nil {
		return err
	}
	if f := decidedFrac(out); f < floor {
		return fmt.Errorf("decided %.4f of live processes, floor %.4f", f, floor)
	}
	return nil
}

// replayCheck reruns sc and requires an Outcome DeepEqual to want.
func replayCheck(sc protocol.Scenario, want *protocol.Outcome) error {
	got, err := protocol.Run(sc)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return errors.New("replay: Outcome differs from the first run of the same scenario")
	}
	return nil
}
