package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"allforone/internal/failures"
	"allforone/internal/model"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
)

// workload is one named input set of the benchmark: a fixed scenario list
// generated from the seed. The program under test only ever sees the
// generated protocol.Scenario values.
type workload struct {
	name string
	// floor is the least decided/live share a run may reach and still pass.
	floor float64
	// setupN is the process count of the workload's typical scenario: the
	// driver.run_setup_us rung runs at it.
	setupN int
	// overlay marks a workload whose protocol builds a de Bruijn overlay
	// at n=2048 per run.
	overlay bool
	// count is the length of the scenario list; gen builds scenario k of it
	// from the seed alone, so one run's inputs can be rebuilt on their own.
	// tiny shrinks every size for the smoke tests.
	count func(tiny bool) int
	gen   func(seed int64, k int, tiny bool) (protocol.Scenario, error)
}

// workloads is the benchmark's workload table; README.md gives the
// reason for each.
var workloads = []workload{
	{name: "dense-hybrid", floor: 1, setupN: 2048, count: denseCount, gen: denseHybrid},
	{name: "allconcur-crash", floor: 1, setupN: 2048, overlay: true, count: sized(7, 2), gen: allconcurCrash},
	{name: "paper-small", floor: 1, setupN: 7, count: sized(4000, 20), gen: paperSmall},
}

// sized returns a list length: full for measurement, tiny for smoke tests.
func sized(full, tiny int) func(bool) int {
	return func(t bool) int {
		if t {
			return tiny
		}
		return full
	}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rngFor derives the generator of scenario k's inputs from the seed.
func rngFor(seed int64, salt uint64, k int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), salt^uint64(k)<<16))
}

// denseProtocolSeeds is dense-hybrid's fixed panel of protocol seeds. The
// common coin makes a run take 2 to 7 rounds depending on the protocol
// seed, and one run costs 1 to 9 host seconds accordingly; only a handful
// of runs fit in one measurement, so drawing the protocol seeds from the
// workload seed would make the medians depend on the round mix the seed
// happens to draw. The panel spans 2, 3, 4 and 7 rounds; the workload
// seed picks the crash victims and the run order.
var denseProtocolSeeds = []int64{4099, 4100, 4101, 4102, 4103, 4104}

func denseCount(tiny bool) int {
	if tiny {
		return 2
	}
	return len(denseProtocolSeeds)
}

// denseHybrid: hybrid consensus at n=2048 in 10 clusters, alternating
// binary proposals, 8 timed crashes at 150µs, Uniform(50µs,2ms) delays.
func denseHybrid(seed int64, k int, tiny bool) (protocol.Scenario, error) {
	n := 2048
	if tiny {
		n = 256
	}
	order := rngFor(seed, 0xd0, 0).Perm(denseCount(tiny))
	rng := rngFor(seed, 0xd1, k)
	part, err := model.Blocks(n, 10)
	if err != nil {
		return protocol.Scenario{}, err
	}
	binary := make([]model.Value, n)
	for i := range binary {
		binary[i] = model.Value(int8(i % 2))
	}
	sched := failures.NewSchedule(n)
	stride := n / 8
	for c := 0; c < 8; c++ {
		if err := sched.SetTimed(model.ProcID(c*stride+rng.IntN(stride)), 150*time.Microsecond); err != nil {
			return protocol.Scenario{}, err
		}
	}
	return protocol.Scenario{
		Protocol: "hybrid",
		Topology: protocol.Topology{Partition: part},
		Workload: protocol.Workload{Binary: binary},
		Faults:   sched,
		Profile:  protocol.Uniform(50*time.Microsecond, 2*time.Millisecond),
		Seed:     denseProtocolSeeds[order[k]],
		Bounds:   protocol.Bounds{MaxRounds: 10_000},
	}, nil
}

// allconcurCrash: AllConcur-style atomic broadcast at n=2048 over a de
// Bruijn overlay, two timed crashes at 150µs, Uniform(0,200µs) delays.
func allconcurCrash(seed int64, k int, tiny bool) (protocol.Scenario, error) {
	n := 2048
	if tiny {
		n = 128
	}
	rng := rngFor(seed, 0xac, k)
	values := make([]string, n)
	for i := range values {
		values[i] = fmt.Sprintf("v%d", i)
	}
	sched := failures.NewSchedule(n)
	for _, p := range rng.Perm(n)[:2] {
		if err := sched.SetTimed(model.ProcID(p), 150*time.Microsecond); err != nil {
			return protocol.Scenario{}, err
		}
	}
	return protocol.Scenario{
		Protocol: "allconcur",
		Topology: protocol.Topology{N: n, Overlay: &overlay.Spec{Kind: overlay.KindDeBruijn}},
		Workload: protocol.Workload{Values: values},
		Faults:   sched,
		Profile:  protocol.Uniform(0, 200*time.Microsecond),
		Seed:     rng.Int64(),
	}, nil
}

// paperSmall: runs at the paper's own scale. Every block of ten holds four
// local-coin and three common-coin hybrid runs on the two Figure 1
// partitions (n=7), one benor and one mpcoin run at n=7, and one hybrid
// run at n=128 in 8 clusters; proposals are random, delays
// Uniform(0,200µs).
func paperSmall(seed int64, k int, _ bool) (protocol.Scenario, error) {
	rng := rngFor(seed, 0x75, k)
	sc := protocol.Scenario{
		Protocol: "hybrid",
		Profile:  protocol.Uniform(0, 200*time.Microsecond),
		Seed:     rng.Int64(),
		Bounds:   protocol.Bounds{MaxRounds: 10_000},
	}
	if k%2 == 0 {
		sc.Topology.Partition = model.Fig1Left()
	} else {
		sc.Topology.Partition = model.Fig1Right()
	}
	switch k % 10 {
	case 0, 1, 2, 3:
		sc.Algorithm = "local-coin"
	case 4, 5, 6:
		sc.Algorithm = "common-coin"
	case 7:
		sc.Protocol, sc.Topology = "benor", protocol.Topology{N: 7}
	case 8:
		sc.Protocol, sc.Topology = "mpcoin", protocol.Topology{N: 7}
	case 9:
		big, err := model.Blocks(128, 8)
		if err != nil {
			return protocol.Scenario{}, err
		}
		sc.Topology = protocol.Topology{Partition: big}
	}
	n, err := sc.Topology.Procs()
	if err != nil {
		return protocol.Scenario{}, err
	}
	sc.Workload.Binary = make([]model.Value, n)
	for i := range sc.Workload.Binary {
		sc.Workload.Binary[i] = model.Value(int8(rng.IntN(2)))
	}
	return sc, nil
}
