package allconcur

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/overlay"
	"allforone/internal/sim"
	"allforone/internal/vclock"
)

func proposals(n int) []string {
	ps := make([]string, n)
	for i := range ps {
		ps[i] = fmt.Sprintf("v%d", i)
	}
	return ps
}

func baseConfig(n int, spec overlay.Spec) Config {
	return Config{
		N:         n,
		Proposals: proposals(n),
		Spec:      spec,
		Seed:      42,
		MinDelay:  0,
		MaxDelay:  200 * time.Microsecond,
	}
}

func timedCrashes(t *testing.T, n int, at time.Duration, victims ...model.ProcID) *failures.Schedule {
	t.Helper()
	s := failures.NewSchedule(n)
	for _, p := range victims {
		if err := s.SetTimed(p, at); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestCrashFreeDecidesMinOriginOnAllFamilies(t *testing.T) {
	specs := []overlay.Spec{
		{Kind: overlay.KindDeBruijn, Degree: 3},
		{Kind: overlay.KindCirculant, Degree: 3},
		{Kind: overlay.KindRandom, Degree: 3, Seed: 7},
	}
	for _, spec := range specs {
		res, err := Run(baseConfig(33, spec))
		if err != nil {
			t.Fatalf("%v: %v", spec.Kind, err)
		}
		for p, pr := range res.Procs {
			if pr.Status != sim.StatusDecided {
				t.Fatalf("%v: proc %d status %v, want decided", spec.Kind, p, pr.Status)
			}
			if pr.Decision != "v0" {
				t.Fatalf("%v: proc %d decided %q, want v0 (smallest origin)", spec.Kind, p, pr.Decision)
			}
			if pr.Delivered != 33 {
				t.Fatalf("%v: proc %d delivered %d of 33", spec.Kind, p, pr.Delivered)
			}
		}
	}
}

// TestSurvivorsAgreeUnderMinorityCrashes: with κ(circulant d=3) = 3, any
// two crashes leave the live subgraph strongly connected; every survivor
// must terminate via the exclusion rule and all must decide alike.
func TestSurvivorsAgreeUnderMinorityCrashes(t *testing.T) {
	n := 7
	for _, at := range []time.Duration{0, 50 * time.Microsecond, 300 * time.Microsecond} {
		cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindCirculant, Degree: 3})
		cfg.Crashes = timedCrashes(t, n, at, 0, 6)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("at=%v: %v", at, err)
		}
		var decision string
		for p, pr := range res.Procs {
			if p == 0 || p == 6 {
				// A victim whose instant falls after its completion decides
				// first — a legitimate execution (it is then held to the
				// agreement check below like any decider). Before the flush
				// delay has even elapsed (at ≤ 50µs here), completion is
				// impossible and the crash must win.
				if pr.Status == sim.StatusDecided && at > DefaultFlushDelay {
					// falls through to the agreement check
				} else if pr.Status != sim.StatusCrashed {
					t.Fatalf("at=%v: victim %d status %v, want crashed", at, p, pr.Status)
				} else {
					continue
				}
			}
			if pr.Status != sim.StatusDecided {
				t.Fatalf("at=%v: survivor %d status %v (delivered %d), want decided", at, p, pr.Status, pr.Delivered)
			}
			if decision == "" {
				decision = pr.Decision
			} else if pr.Decision != decision {
				t.Fatalf("at=%v: survivor %d decided %q, earlier survivor %q", at, p, pr.Decision, decision)
			}
		}
		// Validity: the decision is some process's proposal.
		valid := false
		for _, v := range cfg.Proposals {
			if v == decision {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("at=%v: decision %q is no proposal", at, decision)
		}
	}
}

// TestInstantCrashExcludesVictimsValue: victims crashing at t=0 never
// propose; survivors must exclude them and decide the smallest LIVE
// origin's value.
func TestInstantCrashExcludesVictimsValue(t *testing.T) {
	n := 7
	cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindCirculant, Degree: 3})
	cfg.Crashes = timedCrashes(t, n, 0, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range res.Procs {
		if p == 0 {
			continue
		}
		if pr.Status != sim.StatusDecided || pr.Decision != "v1" {
			t.Fatalf("survivor %d: status %v decision %q, want decided v1", p, pr.Status, pr.Decision)
		}
		if pr.Delivered != n-1 {
			t.Fatalf("survivor %d delivered %d, want %d (victim excluded)", p, pr.Delivered, n-1)
		}
	}
}

// TestDisconnectionBlocksIndulgently: on a ring (κ=1) one crash severs
// the live subgraph. Processes cut off from an origin must block — never
// guess — while the decided/crashed rest stays consistent: indulgence.
func TestDisconnectionBlocksIndulgently(t *testing.T) {
	// Ring 0→1→2→3→0; crashing 2 at t=0 leaves 1 unable to reach 3 and 0.
	n := 4
	cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindCirculant, Degree: 1})
	cfg.Crashes = timedCrashes(t, n, 0, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced {
		t.Fatalf("run did not quiesce: %+v", res)
	}
	if got := res.Procs[2].Status; got != sim.StatusCrashed {
		t.Fatalf("victim status %v, want crashed", got)
	}
	// Process 1 still hears 0 (directly) and 3 (via 0): it can exclude 2
	// and decide. Processes 0 and 3 never hear 1's value — 1's only
	// successor was the victim — and 1 is live, so they must block.
	if got := res.Procs[1].Status; got != sim.StatusDecided {
		t.Fatalf("proc 1 status %v, want decided", got)
	}
	if got := res.Procs[1].Decision; got != "v0" {
		t.Fatalf("proc 1 decided %q, want v0", got)
	}
	for _, p := range []int{0, 3} {
		if got := res.Procs[p].Status; got != sim.StatusBlocked {
			t.Fatalf("proc %d status %v, want blocked (cut off from origin 1)", p, got)
		}
	}
}

// TestDeterministicReplay: same Config, bit-identical Result.
func TestDeterministicReplay(t *testing.T) {
	cfg := baseConfig(64, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 4})
	cfg.Crashes = timedCrashes(t, 64, 120*time.Microsecond, 9, 33)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestEnvelopeCountStaysSubQuadratic pins the batching design: flushing
// news as shared-slice envelopes keeps the measured message count near
// n·d per dissemination wave — far under the n² of an all-to-all round.
func TestEnvelopeCountStaysSubQuadratic(t *testing.T) {
	n, d := 128, 4
	cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: d})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p, pr := range res.Procs {
		if pr.Status != sim.StatusDecided {
			t.Fatalf("proc %d status %v", p, pr.Status)
		}
	}
	if quad := int64(n) * int64(n); res.Metrics.MsgsSent >= quad {
		t.Fatalf("MsgsSent = %d is not sub-quadratic (n² = %d)", res.Metrics.MsgsSent, quad)
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	good := baseConfig(8, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 2})
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"too few procs", func(c *Config) { c.N = 1; c.Proposals = c.Proposals[:1] }},
		{"proposal count", func(c *Config) { c.Proposals = c.Proposals[:3] }},
		{"realtime engine", func(c *Config) { c.Engine = sim.EngineRealtime }},
		{"coroutine body", func(c *Config) { c.Body = sim.BodyCoroutine }},
		{"step-point crashes", func(c *Config) {
			s := failures.NewSchedule(c.N)
			if err := s.Set(0, failures.Crash{At: failures.Point{Round: 1, Phase: 1, Stage: failures.StageRoundStart}}); err != nil {
				t.Fatal(err)
			}
			c.Crashes = s
		}},
		{"oversized crash schedule", func(c *Config) {
			s := failures.NewSchedule(64)
			if err := s.SetTimed(33, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			c.Crashes = s
		}},
		{"bad overlay", func(c *Config) { c.Spec = overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 1} }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// TestGoldenSchedulePin pins one crash run's whole schedule to the values
// the interval-set implementation produced before the delivered set became
// a bitmap and news items became packed ids: a representation change must
// move no event. Process 0 crashes at t=0 (never proposes), its successor
// 2 and process 301 crash mid-flood, so every survivor resolves the
// suspect closure of origin 0 through a crashed member.
func TestGoldenSchedulePin(t *testing.T) {
	const n = 512
	cfg := baseConfig(n, overlay.Spec{Kind: overlay.KindDeBruijn, Degree: 4})
	s := failures.NewSchedule(n)
	for _, c := range []struct {
		p  model.ProcID
		at time.Duration
	}{{0, 0}, {2, 150 * time.Microsecond}, {301, 220 * time.Microsecond}} {
		if err := s.SetTimed(c.p, c.at); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Crashes = s
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 24410 || res.VirtualTime != 1618267 {
		t.Errorf("Steps %d VirtualTime %d, want 24410 1618267", res.Steps, res.VirtualTime)
	}
	wantMetrics := metrics.Snapshot{MsgsSent: 20152, MsgsDelivered: 20068, RoundsTotal: 509, MaxRound: 1}
	if res.Metrics != wantMetrics {
		t.Errorf("Metrics %+v, want %+v", res.Metrics, wantMetrics)
	}
	wantSched := vclock.SchedulerStats{EventsScheduled: 24410, MaxBucketDepth: 136, ShardEvents: 20062,
		PoolFlushes: 4523, BurstJobs: 4523, PooledPayloadBytes: 641984, MaxShardStage: 511}
	if res.Sched != wantSched {
		t.Errorf("Sched %+v, want %+v", res.Sched, wantSched)
	}
	h := sha256.New()
	for p, pr := range res.Procs {
		fmt.Fprintf(h, "%d %v %q %d\n", p, pr.Status, pr.Decision, pr.Delivered)
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "50d7e7c5ad697d9f39ae4e302cb410c823e8e9ca7c210633292ef1cede9297a2"; got != want {
		t.Errorf("per-process (Status, Decision, Delivered) digest %s, want %s", got, want)
	}
	for p, want := range map[int]ProcResult{
		0:   {Status: sim.StatusCrashed},
		2:   {Status: sim.StatusCrashed, Delivered: 2},
		3:   {Status: sim.StatusDecided, Decision: "v1", Delivered: n - 1},
		301: {Status: sim.StatusCrashed, Delivered: 11},
	} {
		if res.Procs[p] != want {
			t.Errorf("proc %d: %+v, want %+v", p, res.Procs[p], want)
		}
	}
}

// TestBitmapMatchesMapReference drives random Add sequences against a map
// and checks Add's novelty report, Count, and EachMissing: ascending ids,
// all below n, stopping at the first rejection — including after the
// cursor has skipped words that filled up.
func TestBitmapMatchesMapReference(t *testing.T) {
	for _, n := range []int{2, 63, 64, 65, 2051} {
		rng := rand.New(rand.NewPCG(uint64(n), 1))
		s := newBitmap(make([]uint64, (n+63)/64), n)
		ref := map[uint32]bool{}
		checkMissing := func(step int) {
			var missing []uint32
			if !s.EachMissing(func(q uint32) bool { missing = append(missing, q); return true }) {
				t.Fatalf("n=%d step %d: EachMissing rejected with an accepting fn", n, step)
			}
			var want []uint32
			for q := uint32(0); q < uint32(n); q++ {
				if !ref[q] {
					want = append(want, q)
				}
			}
			if !slices.Equal(missing, want) {
				t.Fatalf("n=%d step %d: EachMissing = %v, want %v", n, step, missing, want)
			}
			if len(want) > 0 {
				stop := want[rng.IntN(len(want))]
				var seen []uint32
				if s.EachMissing(func(q uint32) bool { seen = append(seen, q); return q != stop }) {
					t.Fatalf("n=%d step %d: EachMissing ignored the rejection at %d", n, step, stop)
				}
				if i := slices.Index(want, stop); !slices.Equal(seen, want[:i+1]) {
					t.Fatalf("n=%d step %d: EachMissing visited %v before stopping, want %v", n, step, seen, want[:i+1])
				}
			}
		}
		// Fill in an order that completes low words early (so the cursor
		// advances) while leaving random holes behind it for a while.
		order := rng.Perm(n)
		slices.SortStableFunc(order, func(a, b int) int { return a/64 - b/64 })
		for i := 0; i+1 < len(order); i += 2 {
			if rng.IntN(3) == 0 {
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
		for step := 0; step < 2*n; step++ {
			var q uint32
			if step < n && rng.IntN(4) != 0 {
				q = uint32(order[step])
			} else {
				q = uint32(rng.IntN(n))
			}
			if got, want := s.Add(q), !ref[q]; got != want {
				t.Fatalf("n=%d step %d: Add(%d) = %v, want %v", n, step, q, got, want)
			}
			ref[q] = true
			if s.Count() != len(ref) {
				t.Fatalf("n=%d step %d: Count = %d, want %d", n, step, s.Count(), len(ref))
			}
			if step%7 == 0 || step == 2*n-1 {
				checkMissing(step)
			}
		}
		for q := 0; q < n; q++ {
			s.Add(uint32(q))
		}
		if s.Count() != n {
			t.Fatalf("n=%d: Count = %d after adding every id", n, s.Count())
		}
		if !s.EachMissing(func(q uint32) bool { t.Fatalf("n=%d: full set reported %d missing", n, q); return false }) {
			t.Fatalf("n=%d: full set rejected", n)
		}
	}
}

// TestMarkFailRejectsNonSuccessorCertificate: a FAIL(f, s) item whose s is
// not a successor of f is malformed and must leave no trace — in
// particular it must not mark f known crashed, which would let the
// suspect-closure rule exclude f's value on no evidence.
func TestMarkFailRejectsNonSuccessorCertificate(t *testing.T) {
	g, err := overlay.Spec{Kind: overlay.KindCirculant, Degree: 2}.Build(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := newRunState(g, proposals(8), nil, DefaultFlushDelay)
	rx := st.newReactor(5, nil, nil)
	f := model.ProcID(0)
	var s model.ProcID
	for s = 1; slices.Contains(g.Succ(f), s); s++ {
	}
	if rx.markFail(f, s) {
		t.Fatalf("markFail(%d, %d) accepted a non-successor certificate (Succ = %v)", f, s, g.Succ(f))
	}
	if rx.fails[f] != nil {
		t.Fatalf("malformed FAIL(%d, %d) marked %d known crashed", f, s, f)
	}
	if !rx.markFail(f, g.Succ(f)[0]) || rx.fails[f] == nil {
		t.Fatalf("markFail rejected the well-formed FAIL(%d, %d)", f, g.Succ(f)[0])
	}
}
