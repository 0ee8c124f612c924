package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"allforone/internal/protocol"
	"allforone/internal/sim"
)

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmokeEveryWorkload runs each workload at tiny size, timed and
// traced, and checks that every declared metric is emitted with its unit
// and nothing else is.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := contract(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, rep, err := runBench(config{w: w, seed: 1, trace: trace, tiny: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d errors=%v", w.name, trace, res.Correct, res.Failed, res.Attempted, rep.Errors)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared", w.name, trace, name)
				}
			}
		}
	}
}

// TestPlantedWrongDecisionCounts flips one process's decision and checks
// that the run is counted as failed and reaches failed_frac.
func TestPlantedWrongDecisionCounts(t *testing.T) {
	w, err := lookupWorkload("paper-small")
	if err != nil {
		t.Fatal(err)
	}
	planted := false
	cfg := config{w: w, seed: 3, trace: true, tiny: true, outDir: t.TempDir(), tamper: func(out *protocol.Outcome) {
		if planted {
			return
		}
		for i, p := range out.Procs {
			if p.Status == sim.StatusDecided && i > 0 {
				out.Procs[i].Decision = map[string]string{"0": "1", "1": "0"}[p.Decision]
				planted = true
				return
			}
		}
	}}
	res, rep, err := runBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !planted {
		t.Fatal("no decision to plant")
	}
	if res.Correct || res.Failed < 1 {
		t.Fatalf("planted wrong decision not counted: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(strings.Join(rep.Errors, "\n"), "agreement") {
		t.Errorf("errors %v do not name the agreement violation", rep.Errors)
	}
	want := float64(res.Failed) / float64(res.Attempted)
	if got := res.Metrics["failed_frac"].Value; got != want || got == 0 {
		t.Errorf("failed_frac = %v, want %v", got, want)
	}
}

// TestScenariosRepeatForASeed checks that a seed fixes every workload's
// inputs and that another seed changes them.
func TestScenariosRepeatForASeed(t *testing.T) {
	for _, w := range workloads {
		a, err := buildList(config{w: w, seed: 5, tiny: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildList(config{w: w, seed: 5, tiny: true}, nil)
		c, _ := buildList(config{w: w, seed: 6, tiny: true}, nil)
		if !equalScenarios(a, b) {
			t.Errorf("%s: one seed gave two scenario lists", w.name)
		}
		if equalScenarios(a, c) {
			t.Errorf("%s: seeds 5 and 6 gave the same scenario list", w.name)
		}
	}
}

func equalScenarios(a, b []protocol.Scenario) bool { return reflect.DeepEqual(a, b) }
