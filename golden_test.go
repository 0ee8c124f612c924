package allforone

// Cross-commit golden pins for the broadcast fanout's tie-break (DESIGN.md
// §11, §12). The replay and Workers differentials compare runs of one
// tree with each other, so a fanout sort that reordered equal-instant
// arrivals — same delays, different mailbox wake order — would pass all
// of them. These digests were recorded before the fanout sort was
// rewritten and must never move without a declared schedule change:
// arrivals due at one instant deliver in recipient-list order (serial
// path) and ascending stripe order (sharded path).

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"allforone/internal/vclock"
)

// outcomeDigest hashes the schedule-determined parts of an Outcome:
// per-process results, the metrics snapshot, virtual time and steps.
func outcomeDigest(out *Outcome) string {
	h := sha256.New()
	for p, pr := range out.Procs {
		fmt.Fprintf(h, "%d %v %q %d\n", p, pr.Status, pr.Decision, pr.Round)
	}
	fmt.Fprintf(h, "%+v\n%d %d\n", out.Metrics, out.VirtualTime, out.Steps)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenFanoutSerial pins hybrid runs on the paper's Fig. 1 left
// partition (n=7, the serial sendFan path). Immediate delivery makes every
// arrival of a broadcast tie, so the recipient-order tie-break alone
// decides the schedule; Uniform(0,200µs) is the paper-scale profile.
func TestGoldenFanoutSerial(t *testing.T) {
	for _, c := range []struct {
		name   string
		algo   string
		prof   NetworkProfile
		digest string
		sched  vclock.SchedulerStats
	}{
		{"immediate/local-coin", AlgoLocalCoin, nil,
			"4f38bf068fbee427d158bb97bdc7107f12e06f1cb49e20b4f792ce3523d2e705",
			vclock.SchedulerStats{EventsScheduled: 49, MaxBucketDepth: 10}},
		{"immediate/common-coin", AlgoCommonCoin, nil,
			"0cb00415b386cae5c7f14b639afefb0031256470def0c6c27f95c9ebfd5f5fff",
			vclock.SchedulerStats{EventsScheduled: 28, MaxBucketDepth: 10}},
		{"uniform/common-coin", AlgoCommonCoin, UniformProfile(0, 200*time.Microsecond),
			"7a94a848cabf4db6f5a6ee0e548eb570105de2788b13485f3f4494ea0b3ac2a7",
			vclock.SchedulerStats{EventsScheduled: 100, MaxBucketDepth: 9}},
	} {
		t.Run(c.name, func(t *testing.T) {
			part := Fig1Left()
			w := Workload{}
			for i := 0; i < part.N(); i++ {
				w.Binary = append(w.Binary, Value(int8(i%2)))
			}
			out, err := Run(Scenario{
				Protocol:  ProtocolHybrid,
				Algorithm: c.algo,
				Topology:  Topology{Partition: part},
				Workload:  w,
				Profile:   c.prof,
				Seed:      7,
				Bounds:    Bounds{MaxRounds: 10_000},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := outcomeDigest(out); got != c.digest {
				t.Errorf("outcome digest %s, want %s (steps %d, virtual %v, metrics %+v)",
					got, c.digest, out.Steps, out.VirtualTime, out.Metrics)
			}
			if out.Sched != c.sched {
				t.Errorf("Sched %#v, want %#v", out.Sched, c.sched)
			}
		})
	}
}

// TestGoldenFanoutSharded pins hybrid runs at n=512 (4 expansion shards,
// the fanJob path) with two timed crashes: under Uniform(50µs,2ms), the
// dense benchmark profile, and under a jitter-free cluster WAN, where every
// inter-cluster arrival of a stripe ties and the stripe-order tie-break
// decides the schedule. Sched is left out of the digest: its pool counters
// depend on the lookahead hint, not on the fanout order.
func TestGoldenFanoutSharded(t *testing.T) {
	const n = 512
	for _, c := range []struct {
		name      string
		prof      NetworkProfile
		digest    string
		lookahead bool
	}{
		{"uniform", UniformProfile(50*time.Microsecond, 2*time.Millisecond),
			"76217aacc2096e09a6344ba77f80532b42b760c18465f2794801e6729b49f765", true},
		{"cluster-wan", ClusterWANProfile(20*time.Microsecond, 300*time.Microsecond, 0),
			"ebe660b011503a518efecf1abaee4efc8851b87161cf92eb1d30f858201c201e", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			part, err := Blocks(n, 8)
			if err != nil {
				t.Fatal(err)
			}
			sched := NewSchedule(n)
			for _, cr := range []struct {
				p  ProcID
				at time.Duration
			}{{3, 150 * time.Microsecond}, {300, 900 * time.Microsecond}} {
				if err := sched.SetTimed(cr.p, cr.at); err != nil {
					t.Fatal(err)
				}
			}
			out, err := Run(Scenario{
				Protocol: ProtocolHybrid,
				Topology: Topology{Partition: part},
				Workload: largeNWorkload(n, true),
				Faults:   sched,
				Profile:  c.prof,
				Seed:     4099,
				Bounds:   Bounds{MaxRounds: 10_000},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := outcomeDigest(out); got != c.digest {
				t.Errorf("outcome digest %s, want %s (steps %d, virtual %v, metrics %+v)",
					got, c.digest, out.Steps, out.VirtualTime, out.Metrics)
			}
			// A Scenario Uniform band with a positive minimum reaches
			// netsim as WithUniformDelay, whose minimum is the expansion
			// jobs' lookahead hint: broadcasts batch into few pool flushes
			// instead of paying one barrier each (2046 flushes for 2558
			// jobs when the band arrived as an opaque delay function).
			if c.lookahead && out.Sched.PoolFlushes*100 > out.Sched.ExpandJobs {
				t.Errorf("%d pool flushes for %d expansion jobs: the uniform lookahead hint is lost",
					out.Sched.PoolFlushes, out.Sched.ExpandJobs)
			}
		})
	}
}
