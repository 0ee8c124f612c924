package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"time"

	"allforone/internal/driver"
	"allforone/internal/mailbox"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	"allforone/internal/vclock"
)

// rung is one microbenchmark of the layer ladder: the cost of one
// operation of a single layer, driven through that layer's exported API.
type rung struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// EventsPerOp is the scheduler events one operation cost inside the
	// rung (transport rungs only); attribution subtracts their pop cost.
	EventsPerOp float64 `json:"events_per_op,omitempty"`
	// PopNs is the pop cost of one of those events (transport rungs only).
	PopNs float64 `json:"pop_ns,omitempty"`
}

// ladder holds every rung. Transport and dispatch rungs are inclusive of
// the layers beneath them; attribution (attribute) subtracts those.
type ladder struct {
	Pop, DeepPop, Cascade, Flush rung
	Send, SendAll, SendAllExpand rung
	SendAllSmall, Burst          rung
	PutGet                       rung
	React                        rung
	RunSetupUs                   float64 // per driver.RunHandlers call at the workload's n
	OverlayBuild2048             float64 // seconds per de Bruijn build at n=2048
}

// rungReps is how many times each rung's batch runs; the median counts.
const rungReps = 5

var heapAllocs = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func allocObjects() uint64 {
	rtmetrics.Read(heapAllocs)
	return heapAllocs[0].Value.Uint64()
}

// measure times batch (which performs ops operations and returns the
// scheduler events it processed) rungReps times and reports the median
// per-operation cost.
func measure(sp *spans, name string, ops int, batch func() int64) rung {
	ns := make([]float64, rungReps)
	var allocs uint64
	var events int64
	for r := range ns {
		runtime.GC()
		a0 := allocObjects()
		end := sp.start(name, 0, "ladder")
		t0 := time.Now()
		events = batch()
		ns[r] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
		end()
		allocs = allocObjects() - a0
	}
	return rung{NsPerOp: median(ns), AllocsPerOp: float64(allocs) / float64(ops), EventsPerOp: float64(events) / float64(ops)}
}

// lcg is a tiny deterministic generator for rung inputs.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 17)
}

// runLadder measures every rung; div > 1 shrinks each rung's batch (the
// smoke tests use it).
func runLadder(sp *spans, setupN, div int) ladder {
	var L ladder

	// vclock: steady-state insert + pop + fire, 64 events in flight spread
	// over a few wheel buckets.
	popOps := 1 << 18 / div
	L.Pop = measure(sp, "vclock.pop", popOps, func() int64 {
		s := vclock.New()
		left := popOps
		g := lcg(1)
		var tick func()
		tick = func() {
			left--
			if left >= 64 {
				s.After(vclock.Time(1000+g.next()%60_000), tick)
			}
		}
		for i := 0; i < 64; i++ {
			s.After(vclock.Time(i*1000), tick)
		}
		return s.Run().Steps
	})
	// vclock: one bucket 2048 deep, every event at the same instant (a
	// dense round's arrivals, an allconcur flood's envelopes).
	deep, deepRounds := 2048, max(64/div, 1)
	L.DeepPop = measure(sp, "vclock.deep_pop", deep*deepRounds, func() int64 {
		var steps int64
		for r := 0; r < deepRounds; r++ {
			s := vclock.New()
			for i := 0; i < deep; i++ {
				s.At(1000, noop)
			}
			steps += s.Run().Steps
		}
		return steps
	})
	// vclock: events beyond the wheel's 4.1ms horizon, each cascading
	// from the overflow heap into the wheel before its pop.
	cascOps := 1 << 17 / div
	L.Cascade = measure(sp, "vclock.cascade", cascOps, func() int64 {
		s := vclock.New()
		for i := 0; i < cascOps; i++ {
			s.At(vclock.Time(5_000_000+i*97), noop)
		}
		return s.Run().Steps
	})

	// vclock: one expansion-pool round trip at n=2048's shard count — a job
	// with nothing to expand, dispatched to the pool by one event and
	// joined before the next.
	flushOps := 1 << 14 / div
	L.Flush = measure(sp, "vclock.flush", flushOps, func() int64 {
		s := vclock.New(vclock.WithShards(vclock.ShardsFor(2048), runtime.NumCPU()))
		for i := 0; i < flushOps; i++ {
			s.At(vclock.Time(i*1000), func() { s.SubmitJob(emptyJob{}, s.Now(), 1) })
		}
		return s.Run().Steps
	})

	// mailbox: Put then TryGet through a virtual inbox, 16 queued at a time.
	pgOps := 1 << 20 / div
	L.PutGet = measure(sp, "mailbox.putget", pgOps, func() int64 {
		v := mailbox.NewVirtual[netsim.Message]()
		m := netsim.Message{From: 1, To: 2, Payload: struct{}{}}
		for i := 0; i < pgOps; i += 16 {
			for j := 0; j < 16; j++ {
				v.Put(m)
			}
			for j := 0; j < 16; j++ {
				v.TryGet()
			}
		}
		return 0
	})

	// driver: one reactor invocation per timer wake.
	reactOps := 1 << 17 / div
	L.React = measure(sp, "driver.react", reactOps, func() int64 {
		out, _ := driver.RunHandlers(driver.Config{Workers: 1, MaxSteps: -1}, 1, nil, func(i int, h *driver.Handle) driver.Reactor {
			return &wakeReactor{h: h, left: reactOps}
		})
		return out.Steps
	})
	// driver: the fixed cost of one run at the workload's typical n —
	// scheduler, network and reactors built, then nothing to do.
	setupRuns := max(3, 20000/setupN/div)
	us := make([]float64, rungReps)
	for r := range us {
		end := sp.start("driver.run_setup", 0, "ladder")
		t0 := time.Now()
		for i := 0; i < setupRuns; i++ {
			var nw *netsim.Network
			var ctr metrics.Counters
			newNet := driver.StandardNet(&nw, setupN, 1, &ctr, 0, 200*time.Microsecond)
			if _, err := driver.RunHandlers(driver.Config{}, setupN, newNet, func(int, *driver.Handle) driver.Reactor { return doneReactor{} }); err != nil {
				panic(err)
			}
		}
		us[r] = float64(time.Since(t0).Microseconds()) / float64(setupRuns)
		end()
	}
	L.RunSetupUs = median(us)

	// netsim: plain Send between random pairs at n=128, unsharded.
	L.Send = transportRung(sp, "netsim.send", 128, false, false, flatBand, 1<<17/div, func(nw *netsim.Network, g *lcg, ops int) {
		for i := 0; i < ops; i++ {
			nw.Send(model.ProcID(g.next()%128), model.ProcID(g.next()%128), payload)
		}
	})
	// netsim: SendAll at n=2048 on the sharded path (per recipient), with
	// its deliveries and, as for most fanout recipients of a dense run
	// (which ends once every process has decided), expanded but never
	// delivered.
	sendAll := func(n int) func(*netsim.Network, *lcg, int) {
		return func(nw *netsim.Network, g *lcg, ops int) {
			for i := 0; i < ops/n; i++ {
				nw.SendAll(model.ProcID(g.next()%uint64(n)), payload)
			}
		}
	}
	L.SendAll = transportRung(sp, "netsim.sendall", 2048, true, false, denseBand, 512*2048/div, sendAll(2048))
	L.SendAllExpand = transportRung(sp, "netsim.sendall_expand", 2048, true, true, denseBand, 2048*2048/div, sendAll(2048))
	// netsim: SendAll at n=128 on the unsharded serial path.
	L.SendAllSmall = transportRung(sp, "netsim.sendall_small", 128, false, false, flatBand, 1024*128/div, sendAll(128))
	// netsim: per-recipient BurstSend at n=2048 on the sharded path.
	L.Burst = transportRung(sp, "netsim.burst", 2048, true, false, flatBand, 1<<17/div, func(nw *netsim.Network, g *lcg, ops int) {
		for i := 0; i < ops; i++ {
			nw.BurstSend(model.ProcID(g.next()%2048), model.ProcID(g.next()%2048), payload)
		}
	})

	L.OverlayBuild2048 = overlayBuild(sp, 2048)
	return L
}

// transportRung measures ops sends issued by send, in 64 equal batches
// one virtual microsecond apart, followed by the deliveries into unbound
// inboxes and their drain — per message: the send, the delay draw, the
// delivery event, one Put and one TryGet. With cut set, the batches are
// one virtual nanosecond apart and the run stops at a deadline before the
// band's first arrival, so each send is drawn, sorted and staged by the
// expansion pool but never delivered (band[0] must exceed the batches'
// span). The rung's
// EventsPerOp and PopNs (the cost of popping as many empty events over
// the same delay window, from wheels sharded alike) let attribution
// remove the scheduler's share.
func transportRung(sp *spans, name string, n int, sharded, cut bool, band [2]time.Duration, ops int, send func(*netsim.Network, *lcg, int)) rung {
	r := measure(sp, name, ops, func() int64 {
		var opts []vclock.Option
		if sharded {
			opts = append(opts, vclock.WithShards(vclock.ShardsFor(n), runtime.NumCPU()))
		}
		spacing := 1000
		if cut {
			spacing = 1
			opts = append(opts, vclock.WithDeadline(vclock.Time(band[0])-1))
		}
		s := vclock.New(opts...)
		// The delay policy a Scenario's protocol.Uniform profile compiles
		// to, so sends take the same path as in the workloads.
		delay, err := protocol.Uniform(band[0], band[1]).Compile(n, nil)
		if err != nil {
			panic(err)
		}
		nw, err := netsim.New(n, netsim.WithScheduler(s), netsim.WithSeed(7), netsim.WithTimedDelayFn(delay))
		if err != nil {
			panic(err)
		}
		g := lcg(3)
		for b := 0; b < transportBatches; b++ {
			s.At(vclock.Time(b*spacing), func() { send(nw, &g, ops/transportBatches) })
		}
		steps := s.Run().Steps
		for p := 0; p < n; p++ {
			for {
				if _, ok := nw.TryReceive(model.ProcID(p)); !ok {
					break
				}
			}
		}
		nw.Shutdown()
		return steps - transportBatches
	})
	events := int(r.EventsPerOp * float64(ops))
	if events > 0 {
		twin := measure(nil, name, events, func() int64 {
			shards := 0
			if sharded {
				shards = vclock.ShardsFor(n)
			}
			s := vclock.New(vclock.WithShards(shards, runtime.NumCPU()))
			g := lcg(5)
			for i := 0; i < events; i++ {
				at := vclock.Time(uint64(band[0]) + g.next()%uint64(band[1]-band[0]+1) + uint64(i%transportBatches)*1000)
				if shards > 0 {
					s.AtEventShard(i%shards, at, noopEvent{})
				} else {
					s.AtEvent(at, noopEvent{})
				}
			}
			return s.Run().Steps
		})
		r.PopNs = twin.NsPerOp
	}
	return r
}

// transportBatches is how many send events a transport rung spreads its
// sends over.
const transportBatches = 64

// The delay bands of the workloads: dense-hybrid's, and everyone else's.
var (
	denseBand = [2]time.Duration{50 * time.Microsecond, 2 * time.Millisecond}
	flatBand  = [2]time.Duration{0, 200 * time.Microsecond}
)

func noop() {}

type noopEvent struct{}

func (noopEvent) Fire() {}

type emptyJob struct{}

func (emptyJob) ExpandShard(int, uint64, *vclock.ShardInserter) {}

func overlayBuild(sp *spans, n int) float64 {
	secs := make([]float64, rungReps)
	for r := range secs {
		end := sp.start("overlay.build", 0, "ladder")
		t0 := time.Now()
		if _, err := (overlay.Spec{Kind: overlay.KindDeBruijn}).Build(n, int64(r)); err != nil {
			panic(err)
		}
		secs[r] = time.Since(t0).Seconds()
		end()
	}
	return median(secs)
}

// wakeReactor re-arms a one-microsecond timer until left invocations ran.
type wakeReactor struct {
	h    *driver.Handle
	left int
}

func (r *wakeReactor) React(aborted bool) bool {
	r.left--
	if aborted || r.left <= 0 {
		return true
	}
	r.h.WakeAfter(time.Microsecond)
	return false
}

// doneReactor finishes at its first invocation.
type doneReactor struct{}

func (doneReactor) React(bool) bool { return true }

// payload is the message every transport rung sends, boxed once.
var payload any = struct{ round, est int }{1, 1}

// self returns an inclusive transport rung's own cost per message: the
// pops of its delivery events and the inbox Put/TryGet pair removed.
func (L *ladder) self(r rung) float64 {
	return max(r.NsPerOp-r.EventsPerOp*(r.PopNs+L.PutGet.NsPerOp), 0)
}

// median returns the middle of xs (the mean of the two middles for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
