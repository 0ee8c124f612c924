package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

// stableByDelay is the reference order of sortArrivals: a stable sort on
// the delay field alone.
func stableByDelay(keys []uint64) []uint64 {
	ref := slices.Clone(keys)
	slices.SortStableFunc(ref, func(a, b uint64) int {
		switch {
		case a>>fanSeqBits < b>>fanSeqBits:
			return -1
		case a>>fanSeqBits > b>>fanSeqBits:
			return 1
		}
		return 0
	})
	return ref
}

// checkArrivalSort runs sortArrivals on a copy of keys with fresh scratch
// and compares the result with the stable reference.
func checkArrivalSort(t *testing.T, keys []uint64) {
	t.Helper()
	got := slices.Clone(keys)
	var counts []int32
	sortArrivals(got, make([]uint64, len(got)), &counts)
	if want := stableByDelay(keys); !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%d keys: first difference at %d: got delay %d recipient %d, want delay %d recipient %d",
					len(keys), i, got[i]>>fanSeqBits, got[i]&(maxPackFan-1), want[i]>>fanSeqBits, want[i]&(maxPackFan-1))
			}
		}
	}
}

// TestSortArrivalsMatchesStableSort pins the fanout sort to a stable sort
// on the delay field across sizes and the delay layouts that stress its
// buckets: spread, all tied, one crowded bucket beside a far outlier, two
// distant clusters, and recipient lists in no particular order (as
// BroadcastSubset may pass).
func TestSortArrivalsMatchesStableSort(t *testing.T) {
	layouts := []struct {
		name  string
		delay func(rng *rand.Rand, i, n int) uint64
	}{
		{"uniform", func(rng *rand.Rand, _, _ int) uint64 { return rng.Uint64N(uint64(2 * time.Millisecond)) }},
		{"equal", func(*rand.Rand, int, int) uint64 { return 777 }},
		{"cluster-outlier", func(rng *rand.Rand, i, n int) uint64 {
			if i == n/2 {
				return 1 << 45
			}
			return 1_000_000 + rng.Uint64N(64)
		}},
		{"two-clusters", func(rng *rand.Rand, i, _ int) uint64 {
			if i%2 == 0 {
				return 1_000 + rng.Uint64N(1_000)
			}
			return 1<<40 + rng.Uint64N(1_000)
		}},
		{"max-delay", func(rng *rand.Rand, _, _ int) uint64 {
			return uint64(maxPackWait) - 1 - rng.Uint64N(3)
		}},
	}
	for _, n := range []int{0, 1, 2, 7, 128, 2048, 8192} {
		for _, l := range layouts {
			for _, order := range []string{"ascending", "shuffled"} {
				t.Run(fmt.Sprintf("n=%d/%s/%s", n, l.name, order), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(uint64(n), 99))
					recipients := make([]int, n)
					for i := range recipients {
						recipients[i] = i
					}
					if order == "shuffled" {
						rng.Shuffle(n, func(i, j int) { recipients[i], recipients[j] = recipients[j], recipients[i] })
					}
					keys := make([]uint64, n)
					for i, to := range recipients {
						keys[i] = l.delay(rng, i, n)<<fanSeqBits | uint64(to)
					}
					checkArrivalSort(t, keys)
				})
			}
		}
	}
}

// FuzzArrivalSort decodes the input into packed arrival keys — 4 bytes
// per key: a 24-bit delay mantissa and a shift that spreads delays over
// the whole 50-bit field, with recipients in input order — and checks
// sortArrivals against the stable reference.
func FuzzArrivalSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(slices.Repeat([]byte{5, 1, 0, 3}, 40))
	f.Add(append(slices.Repeat([]byte{9, 0, 0, 0}, 60), 1, 0, 0, 26))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]uint64, 0, min(len(data)/4, maxPackFan))
		for i := 0; i+4 <= len(data) && len(keys) < maxPackFan; i += 4 {
			mant := uint64(binary.LittleEndian.Uint32(data[i:])) & (1<<24 - 1)
			d := mant << (data[i+3] % 27)
			keys = append(keys, d<<fanSeqBits|uint64(len(keys)*7919%maxPackFan))
		}
		checkArrivalSort(t, keys)
	})
}

// TestFanoutPathsZeroAllocs pins both fanout paths allocation-free once
// warm: the serial sendFan (n=128, unsharded) and the sharded fanJob
// expansion (n=2048, 16 shards) sort and compress in their owner's
// scratch into pooled fanouts. Every other process drains its inbox in a
// handler; the last one to see a round's message acks the sender, so each
// measured round ends with all of its fanouts fired and back in a pool.
func TestFanoutPathsZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		shards int
	}{{"serial", 128, 0}, {"sharded", 2048, 16}} {
		t.Run(c.name, func(t *testing.T) {
			s := vclock.New(vclock.WithShards(c.shards, 1))
			nw, err := New(c.n, WithScheduler(s), WithSeed(5), WithUniformDelay(0, 200*time.Microsecond))
			if err != nil {
				t.Fatal(err)
			}
			var payload any = "round"
			got := 0
			for p := 1; p < c.n; p++ {
				p := model.ProcID(p)
				var proc *vclock.Proc
				proc = s.SpawnHandler("drain", func(aborted bool) {
					for {
						_, ok, closed := nw.ReceiveNow(p)
						if aborted || closed {
							proc.Finish()
							return
						}
						if !ok {
							return
						}
						if got++; got == c.n-1 {
							got = 0
							nw.Send(p, 0, payload)
						}
					}
				})
				nw.Bind(p, proc)
			}
			var allocs float64
			sender := s.Spawn("sender", func() {
				round := func() {
					nw.SendAll(0, payload)
					for range 2 { // the loopback and the ack
						if _, ok := nw.Receive(0, nil); !ok {
							t.Error("sender lost a message")
						}
					}
				}
				// Warm-up sizes the pools, the inbox rings, and the timer
				// wheels' buckets, which keep growing until the clock has
				// swept them a few times.
				for range 300 {
					round()
				}
				allocs = testing.AllocsPerRun(100, round)
				for p := 0; p < c.n; p++ {
					nw.CloseInbox(model.ProcID(p))
				}
			})
			nw.Bind(0, sender)
			if out := s.Run(); out.DeadlineExceeded || out.StepsExceeded {
				t.Fatalf("outcome = %+v, want clean", out)
			}
			if jobs := s.Stats().ExpandJobs; (jobs > 0) != (c.shards > 0) {
				t.Fatalf("%d expansion jobs on a %d-shard scheduler", jobs, c.shards)
			}
			if allocs != 0 {
				t.Fatalf("a warm broadcast round allocates %v times, want 0", allocs)
			}
		})
	}
}
