package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"allforone/internal/driver"
	"allforone/internal/metrics"
	"allforone/internal/netsim"
	"allforone/internal/protocol"
	"allforone/internal/sim"
	"allforone/internal/vclock"
)

// setupReps is the least number of times set-up is timed, and
// setupWindow the least host time those repetitions fill; setup_s is
// their median.
const (
	setupReps   = 5
	setupWindow = time.Second
)

// buildList generates the workload's scenario list from the seed.
func buildList(cfg config, sp *spans) ([]protocol.Scenario, error) {
	end := sp.start("setup_list", 0, "phase")
	defer end()
	list := make([]protocol.Scenario, cfg.w.count(cfg.tiny))
	for k := range list {
		sc, err := cfg.w.gen(cfg.seed, k, cfg.tiny)
		if err != nil {
			return nil, fmt.Errorf("%s scenario %d: %w", cfg.w.name, k, err)
		}
		list[k] = sc
	}
	return list, nil
}

// programSetup does, through exported APIs, the set-up protocol.Run does
// for sc before its first event: the network profile compiled, the
// overlay built, and a driver run at the scenario's n — scheduler,
// network and reactors built — whose reactors finish at once.
func programSetup(sc *protocol.Scenario) error {
	n, err := sc.Topology.Procs()
	if err != nil {
		return err
	}
	opts, err := sc.NetOptions(n, sc.Topology.Partition)
	if err != nil {
		return err
	}
	if ov := sc.Topology.Overlay; ov != nil {
		if _, err := ov.Build(n, sc.Seed); err != nil {
			return err
		}
	}
	var nw *netsim.Network
	var ctr metrics.Counters
	newNet := driver.StandardNet(&nw, n, uint64(sc.Seed), &ctr, 0, 0, opts...)
	_, err = driver.RunHandlers(driver.Config{Workers: sc.Workers}, n, newNet, func(int, *driver.Handle) driver.Reactor { return doneReactor{} })
	return err
}

// setupSeconds is setup_s: the host seconds of programSetup over the
// whole list, timed at least setupReps times and for at least
// setupWindow; the median counts. Each repetition starts from a collected
// heap, so none pays for the garbage of the one before.
func setupSeconds(list []protocol.Scenario) (float64, error) {
	var secs []float64
	for t0 := time.Now(); len(secs) < setupReps || time.Since(t0) < setupWindow; {
		runtime.GC()
		t1 := time.Now()
		for i := range list {
			if err := programSetup(&list[i]); err != nil {
				return 0, fmt.Errorf("set-up of scenario %d: %w", i, err)
			}
		}
		secs = append(secs, time.Since(t1).Seconds())
	}
	return median(secs), nil
}

// config is one benchmark invocation.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	// outDir receives the span file and the host record.
	outDir string
	// tamper, when set, edits every Outcome before the gate sees it. The
	// tests use it to plant wrong decisions.
	tamper func(*protocol.Outcome)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed before the result: what was run, where, and how
// many samples each figure rests on.
type report struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Trace        bool     `json:"trace"`
	Host         host     `json:"host"`
	HostMismatch []string `json:"host_mismatch,omitempty"`
	Scenarios    int      `json:"scenarios"`
	TimedRuns    int      `json:"timed_runs"`
	// RunSeconds lists every timed run's host seconds per scenario, for
	// lists of at most 32 scenarios.
	RunSeconds [][]float64 `json:"run_seconds,omitempty"`
	Errors     []string    `json:"errors,omitempty"`
	Ladder     *ladder     `json:"ladder,omitempty"`
	SpansFile  string      `json:"spans_file,omitempty"`
}

// firstRun is what the benchmark keeps of a scenario's first run.
type firstRun struct {
	seen    bool
	n       int
	decided int
	live    int
	virtual time.Duration
	steps   int64
	sched   vclock.SchedulerStats
	m       metrics.Snapshot
}

type bench struct {
	cfg   config
	list  []protocol.Scenario
	sp    *spans
	rep   *report
	times [][]float64 // host seconds of every timed run, per scenario
	cpus  [][]float64 // process CPU seconds of every timed run, per scenario
	first []firstRun

	attempted, failed int
	runID             int

	// replay candidate: the scenario whose first run was fastest.
	replayIdx  int
	replayOut  *protocol.Outcome
	replayTime float64

	// heap objects allocated, summed over each scenario's timed runs
	allocs []uint64

	// traced pass only
	untraced []float64 // host seconds of the paired untraced runs
	rt       runtimeStats
}

func (b *bench) fail(i int, err error) {
	b.failed++
	if len(b.rep.Errors) < 5 {
		b.rep.Errors = append(b.rep.Errors, fmt.Sprintf("scenario %d: %v", i, err))
	}
}

// runOne runs scenario i once, gates it and records its figures. It
// returns the run's host seconds and process CPU seconds.
func (b *bench) runOne(i int, sc protocol.Scenario, runID int) (secs, cpu float64) {
	var rt0 runtimeStats
	if b.sp != nil {
		rt0 = readRuntime()
	}
	a0 := allocObjects()
	c0 := cpuSeconds()
	end := b.sp.start("simulate", runID, "run")
	t0 := time.Now()
	out, err := protocol.Run(sc)
	secs = time.Since(t0).Seconds()
	end()
	cpu = cpuSeconds() - c0
	allocs := allocObjects() - a0
	b.allocs[i] += allocs
	if b.sp != nil {
		b.rt = b.rt.add(readRuntime().sub(rt0))
	}
	if b.cfg.tamper != nil && out != nil {
		b.cfg.tamper(out)
	}
	end = b.sp.start("verify", runID, "run")
	b.attempted++
	if gerr := gate(&sc, out, err, b.cfg.w.floor); gerr != nil {
		b.fail(i, gerr)
	}
	end()
	if out == nil {
		return secs, cpu
	}
	if f := &b.first[i]; !f.seen {
		b.first[i] = summarize(out)
		if b.replayOut == nil || secs < b.replayTime {
			b.replayIdx, b.replayOut, b.replayTime = i, out, secs
		}
	}
	return secs, cpu
}

func summarize(out *protocol.Outcome) firstRun {
	return firstRun{
		seen:    true,
		n:       len(out.Procs),
		decided: out.CountStatus(sim.StatusDecided),
		live:    len(out.Procs) - out.CountStatus(sim.StatusCrashed),
		virtual: out.VirtualTime,
		steps:   out.Steps,
		sched:   out.Sched,
		m:       out.Metrics,
	}
}

// timedLoop is the untraced measurement: a closed loop over the scenario
// list, one run after the other, for at least cfg.seconds and at least
// one whole pass.
func (b *bench) timedLoop() {
	b.cpus = make([][]float64, len(b.list))
	t0 := time.Now()
	for pass := 0; ; pass++ {
		for i, sc := range b.list {
			if pass > 0 && time.Since(t0).Seconds() >= b.cfg.seconds {
				return
			}
			secs, cpu := b.runOne(i, sc, 0)
			b.times[i] = append(b.times[i], secs)
			b.cpus[i] = append(b.cpus[i], cpu)
		}
	}
}

// tracedPass runs every scenario twice, once inside spans (inputs rebuilt
// from the seed in a per-run setup span) and once bare, alternating which
// goes first; the bare runs measure the tracing overhead.
func (b *bench) tracedPass() error {
	b.untraced = make([]float64, len(b.list))
	for i, sc := range b.list {
		traced := func() error {
			b.runID++
			id := b.runID
			endRun := b.sp.start("run", id, "")
			end := b.sp.start("setup", id, "run")
			fresh, err := b.cfg.w.gen(b.cfg.seed, i, b.cfg.tiny)
			end()
			if err != nil {
				return err
			}
			secs, _ := b.runOne(i, fresh, id)
			b.times[i] = append(b.times[i], secs)
			endRun()
			return nil
		}
		bare := func() {
			sp := b.sp
			b.sp = nil
			b.untraced[i], _ = b.runOne(i, sc, 0)
			b.sp = sp
		}
		if i%2 == 0 {
			if err := traced(); err != nil {
				return err
			}
			bare()
		} else {
			bare()
			if err := traced(); err != nil {
				return err
			}
		}
	}
	return nil
}

func runBench(cfg config) (*result, *report, error) {
	b := &bench{cfg: cfg, rep: &report{Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace, Host: thisHost()}}
	if cfg.trace {
		b.sp = newSpans()
	}

	list, err := buildList(cfg, b.sp)
	if err != nil {
		return nil, nil, err
	}
	b.list = list
	b.times = make([][]float64, len(b.list))
	b.first = make([]firstRun, len(b.list))
	b.allocs = make([]uint64, len(b.list))
	b.rep.Scenarios = len(b.list)

	setupS := 0.0
	if cfg.trace {
		if err := b.tracedPass(); err != nil {
			return nil, nil, err
		}
	} else {
		if setupS, err = setupSeconds(b.list); err != nil {
			return nil, nil, err
		}
		b.timedLoop()
	}
	for _, ts := range b.times {
		b.rep.TimedRuns += len(ts)
	}
	if len(b.times) <= 32 {
		b.rep.RunSeconds = b.times
	}

	// Verify: replay the fastest scenario and require the same Outcome;
	// the traced run also replays it at Workers=1, timing both.
	endVerify := b.sp.start("replay", 0, "verify")
	replay := b.list[b.replayIdx]
	t0 := time.Now()
	err = replayCheck(replay, b.replayOut)
	tDefault := time.Since(t0).Seconds()
	b.attempted++
	if err != nil {
		b.fail(b.replayIdx, err)
	}
	poolSpeedup := 0.0
	if cfg.trace {
		replay.Workers = 1
		t0 = time.Now()
		err := replayCheck(replay, b.replayOut)
		poolSpeedup = time.Since(t0).Seconds() / tDefault
		b.attempted++
		if err != nil {
			b.fail(b.replayIdx, fmt.Errorf("Workers=1: %w", err))
		}
	}
	endVerify()

	// The simulated figures cover each scenario's first run; the list is
	// the same for a given seed, so they repeat exactly.
	var vtMs []float64
	var sent, delivered, decided, live int64
	allocs := 0.0
	for i, f := range b.first {
		vtMs = append(vtMs, float64(f.virtual)/1e6)
		sent += f.m.MsgsSent
		delivered += f.m.MsgsDelivered
		decided += int64(f.decided)
		live += int64(f.live)
		allocs += float64(b.allocs[i]) / float64(max(len(b.times[i]), 1))
	}
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	if !cfg.trace {
		// Host figures of one pass over the list, each scenario at the
		// median of its timed runs.
		var runS, cpuS float64
		for i := range b.list {
			runS += median(b.times[i])
			cpuS += median(b.cpus[i])
		}
		put("run_s_p50", "s", runS/float64(len(b.list)))
		put("msgs_per_s", "1/s", float64(delivered)/runS)
		put("cpu_s", "s", cpuS)
		put("allocs_per_run", "count", allocs/float64(len(b.list)))
		put("setup_s", "s", setupS)
		put("virtual_ms_p50", "ms", median(vtMs))
		put("msgs_per_decision", "count", float64(sent)/math.Max(float64(decided), 1))
		put("decided_frac", "ratio", float64(decided)/math.Max(float64(live), 1))
	} else {
		// The bare runs' slowest scenarios and the process's peak resident
		// set; README.md gives why these two are per-layer.
		put("run_s_p99", "s", nearestRank(b.untraced, 0.99))
		put("peak_rss_mb", "MB", peakRSSMB())
		div := 1
		if cfg.tiny {
			div = 64
		}
		L := runLadder(b.sp, cfg.w.setupN, div)
		b.rep.Ladder = &L
		b.layerMetrics(put, &L, poolSpeedup)
		b.rep.SpansFile = filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.w.name, cfg.seed))
		if err := b.sp.write(b.rep.SpansFile); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
	}

	key := fmt.Sprintf("%s-trace%v", cfg.w.name, cfg.trace)
	diff, err := compareHost(cfg.outDir, key, b.rep.Host)
	if err != nil {
		return nil, nil, err
	}
	b.rep.HostMismatch = diff
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, b.rep, nil
}

// layerMetrics emits the per-layer figures of the traced run.
func (b *bench) layerMetrics(put func(name, unit string, v float64), L *ladder, poolSpeedup float64) {
	var st vclock.SchedulerStats
	var steps, sent, delivered, bcasts, rounds, maxRound, cons, coins int64
	for _, f := range b.first {
		steps += f.steps
		s := f.sched
		st.EventsScheduled += s.EventsScheduled
		st.WheelCascades += s.WheelCascades
		st.MaxBucketDepth = max(st.MaxBucketDepth, s.MaxBucketDepth)
		st.ExpandJobs += s.ExpandJobs
		st.BurstJobs += s.BurstJobs
		st.PoolFlushes += s.PoolFlushes
		st.PooledPayloadBytes += s.PooledPayloadBytes
		st.MaxShardStage = max(st.MaxShardStage, s.MaxShardStage)
		sent += f.m.MsgsSent
		delivered += f.m.MsgsDelivered
		bcasts += f.m.Broadcasts
		rounds += f.m.RoundsTotal
		maxRound = max(maxRound, f.m.MaxRound)
		cons += f.m.ConsInvocations
		coins += f.m.CoinFlips
	}
	put("vclock.events", "count", float64(steps))
	put("vclock.events_scheduled", "count", float64(st.EventsScheduled))
	put("vclock.max_bucket_depth", "count", float64(st.MaxBucketDepth))
	put("vclock.cascades", "count", float64(st.WheelCascades))
	put("vclock.expand_jobs", "count", float64(st.ExpandJobs))
	put("vclock.burst_jobs", "count", float64(st.BurstJobs))
	put("vclock.pool_flushes", "count", float64(st.PoolFlushes))
	put("vclock.jobs_per_flush", "ratio", float64(st.ExpandJobs+st.BurstJobs)/math.Max(float64(st.PoolFlushes), 1))
	put("vclock.max_shard_stage", "count", float64(st.MaxShardStage))
	putRung(put, "vclock.pop", L.Pop)
	putRung(put, "vclock.deep_pop", L.DeepPop)
	putRung(put, "vclock.cascade", L.Cascade)
	putRung(put, "vclock.flush", L.Flush)
	put("vclock.pool_speedup", "ratio", poolSpeedup)

	put("netsim.msgs_sent", "count", float64(sent))
	put("netsim.msgs_delivered", "count", float64(delivered))
	put("netsim.delivered_ratio", "ratio", float64(delivered)/math.Max(float64(sent), 1))
	put("netsim.broadcasts", "count", float64(bcasts))
	put("netsim.pooled_payload_bytes", "bytes", float64(st.PooledPayloadBytes))
	putRung(put, "netsim.send", L.Send)
	putRung(put, "netsim.sendall", L.SendAll)
	putRung(put, "netsim.sendall_expand", L.SendAllExpand)
	putRung(put, "netsim.sendall_small", L.SendAllSmall)
	putRung(put, "netsim.burst", L.Burst)
	putRung(put, "mailbox.putget", L.PutGet)
	putRung(put, "driver.react", L.React)
	put("driver.run_setup_us", "us", L.RunSetupUs)
	put("overlay.build_s_n2048", "s", L.OverlayBuild2048)

	put("core.rounds_total", "count", float64(rounds))
	put("core.max_round", "count", float64(maxRound))
	put("core.cons_invocations", "count", float64(cons))
	put("core.coin_flips", "count", float64(coins))

	a := b.attribute(L)
	put("attr.run_s", "s", a.run)
	put("attr.vclock_s", "s", a.vclock)
	put("attr.netsim_s", "s", a.netsim)
	put("attr.mailbox_s", "s", a.mailbox)
	put("attr.driver_s", "s", a.driver)
	put("attr.overlay_s", "s", a.overlay)
	put("protocol.self_s", "s", a.self())

	put("runtime.gc_cycles", "count", float64(b.rt.gcCycles))
	put("runtime.gc_cpu_s", "s", b.rt.gcCPU)
	put("runtime.alloc_mb", "MB", float64(b.rt.allocBytes)/1e6)

	put("phase.setup_s", "s", b.sp.total("setup"))
	put("phase.simulate_s", "s", b.sp.total("simulate"))
	put("phase.verify_s", "s", b.sp.total("verify")+b.sp.total("replay"))
	ratios := make([]float64, len(b.untraced))
	for i := range ratios {
		ratios[i] = b.times[i][0] / b.untraced[i]
	}
	put("trace.overhead_frac", "ratio", median(ratios)-1)
	put("failed_frac", "ratio", float64(b.failed)/float64(b.attempted))
}

func putRung(put func(name, unit string, v float64), name string, r rung) {
	put(name+"_ns", "ns", r.NsPerOp)
	put(name+"_allocs", "count", r.AllocsPerOp)
}

// nearestRank returns the q-quantile of xs by the nearest-rank rule.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeStats is the Go runtime's GC and allocation work.
type runtimeStats struct {
	gcCycles   uint64
	gcCPU      float64
	allocBytes uint64
}

var rtSamples = []rtmetrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readRuntime() runtimeStats {
	rtmetrics.Read(rtSamples)
	return runtimeStats{
		gcCycles:   rtSamples[0].Value.Uint64(),
		gcCPU:      rtSamples[1].Value.Float64(),
		allocBytes: rtSamples[2].Value.Uint64(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.allocBytes - b.allocBytes}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.allocBytes + b.allocBytes}
}

// attribution splits the traced runs' host time over the layers: each
// layer's count in the run times its rung's own cost. README.md gives the
// counts each layer is charged for.
type attribution struct {
	run, vclock, netsim, mailbox, driver, overlay float64
}

// self is the protocol logic's share: the run time no rung accounts for.
func (a attribution) self() float64 {
	return a.run - a.vclock - a.netsim - a.mailbox - a.driver - a.overlay
}

func (b *bench) attribute(L *ladder) attribution {
	var a attribution
	for i, f := range b.first {
		a.run += b.times[i][0]
		// Every fanout recipient was expanded; on the sharded path only
		// those scheduled as delivery events also paid the delivery — a
		// run ends once every process has decided, and the arrivals still
		// in flight then are never delivered.
		fan := min(f.m.MsgsSent, f.m.Broadcasts*int64(f.n))
		other := f.m.MsgsSent - fan
		live := max(min(fan, f.sched.EventsScheduled-other), 0)
		shardedFan := fan > 0 && vclock.ShardsFor(f.n) > 0
		fanNs, liveNs := L.self(L.SendAllSmall), 0.0
		if shardedFan {
			fanNs = L.SendAllExpand.NsPerOp
			liveNs = max(L.self(L.SendAll)-fanNs, 0)
		}
		// A pop among the arrivals a dense round keeps staged costs
		// several times one from a near-empty wheel: sharded fanout runs
		// pay the SendAll rung's twin pop.
		pop := L.Pop.NsPerOp
		switch {
		case f.sched.MaxBucketDepth >= deepBucket:
			pop = L.DeepPop.NsPerOp
		case shardedFan:
			pop = L.SendAll.PopNs
		}
		a.vclock += (float64(f.steps)*pop + float64(f.sched.WheelCascades)*max(L.Cascade.NsPerOp-L.Pop.NsPerOp, 0) +
			float64(f.sched.PoolFlushes)*max(L.Flush.NsPerOp-L.Pop.NsPerOp, 0)) / 1e9
		otherNs := L.self(L.Send)
		if f.sched.BurstJobs > 0 {
			otherNs = L.self(L.Burst)
		}
		a.netsim += (float64(fan)*fanNs + float64(live)*liveNs + float64(other)*otherNs) / 1e9
		a.mailbox += float64(live+other+f.m.MsgsDelivered) / 2 * L.PutGet.NsPerOp / 1e9
		a.driver += float64(f.m.MsgsDelivered)*max(L.React.NsPerOp-L.Pop.NsPerOp, 0)/1e9 + L.RunSetupUs/1e6
		if b.cfg.w.overlay {
			a.overlay += L.OverlayBuild2048
		}
	}
	return a
}

// deepBucket is the bucket depth from which a run's pops are charged at
// the deep-bucket rung instead of the shallow one.
const deepBucket = 1024
