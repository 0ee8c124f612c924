package netsim

import (
	"fmt"
	"testing"
	"time"

	"allforone/internal/model"
	"allforone/internal/vclock"
)

func BenchmarkSendReceive(b *testing.B) {
	nw, err := New(2)
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Shutdown()
	done := make(chan struct{})
	for i := 0; i < b.N; i++ {
		nw.Send(0, 1, i)
		if _, ok := nw.Receive(1, done); !ok {
			b.Fatal("Receive failed")
		}
	}
}

func BenchmarkBroadcast(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			nw, err := New(n)
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Shutdown()
			done := make(chan struct{})
			for i := 0; i < b.N; i++ {
				nw.Broadcast(0, i)
				for p := 0; p < n; p++ {
					if _, ok := nw.Receive(model.ProcID(p), done); !ok {
						b.Fatal("Receive failed")
					}
				}
			}
		})
	}
}

// benchBroadcaster is BenchmarkSendAllSerial's driver event: each firing
// drains every inbox, broadcasts once from a rotating sender, and re-arms
// one virtual microsecond later until left broadcasts have been sent.
type benchBroadcaster struct {
	nw      *Network
	s       *vclock.Scheduler
	left    int
	payload any
}

func (e *benchBroadcaster) Fire() {
	for p := 0; p < e.nw.n; p++ {
		for {
			if _, ok := e.nw.TryReceive(model.ProcID(p)); !ok {
				break
			}
		}
	}
	e.nw.SendAll(model.ProcID(e.left%e.nw.n), e.payload)
	if e.left--; e.left > 0 {
		e.s.AfterEvent(vclock.Time(time.Microsecond), e)
	}
}

// BenchmarkSendAllSerial measures one broadcast on the unsharded serial
// fanout path at the paper's scale — delay draws, the arrival sort, delta
// compression, the fanout's firings and the n inbox drains — under
// paper-small's Uniform(0,200µs) band.
func BenchmarkSendAllSerial(b *testing.B) {
	for _, n := range []int{7, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := vclock.New()
			nw, err := New(n, WithScheduler(s), WithSeed(1), WithUniformDelay(0, 200*time.Microsecond))
			if err != nil {
				b.Fatal(err)
			}
			s.AtEvent(0, &benchBroadcaster{nw: nw, s: s, left: b.N, payload: any("x")})
			b.ReportAllocs()
			b.ResetTimer()
			s.Run()
		})
	}
}

// BenchmarkExpandShard measures the sharded expansion of one SendAll at
// n=2048 over 16 shards under dense-hybrid's Uniform(50µs,2ms) band: per
// op, every shard draws, sorts and compresses its 128-recipient stripe
// into a pooled fanout, which goes straight back to the pool. The staged
// events pile up in one inserter, replaced every 1024 ops, so B/op counts
// that log (about 1 KiB) on top of the expansion itself.
func BenchmarkExpandShard(b *testing.B) {
	const n = 2048
	s := vclock.New(vclock.WithShards(16, 1))
	nw, err := New(n, WithScheduler(s), WithSeed(1), WithUniformDelay(50*time.Microsecond, 2*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	j := &fanJob{nw: nw, payload: any("x"), closed: make([]uint64, len(nw.closedBox))}
	for i := range nw.shards {
		sh := &nw.shards[i]
		sh.free = append(sh.free, &fanout{nw: nw, shard: int32(i), key32: make([]uint32, 0, sh.hi-sh.lo)})
	}
	var ins vclock.ShardInserter
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		if op%1024 == 0 {
			ins = vclock.ShardInserter{}
		}
		j.from = model.ProcID(op % n)
		for i := range nw.shards {
			f := nw.shards[i].free[len(nw.shards[i].free)-1]
			j.ExpandShard(i, 0, &ins)
			f.release()
		}
		nw.recycleShardPools()
	}
}
