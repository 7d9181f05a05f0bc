package server_test

import (
	"fmt"
	"testing"
	"time"

	"batcher/internal/faultinject"
	"batcher/internal/loadgen"
	"batcher/internal/sched"
	"batcher/internal/server"
)

// BenchmarkServerHighFanIn is the reactor's figure of merit: per-op
// cost as fan-in grows from 4 to 1024 connections. Connections are
// pre-dialed by a loadgen.Driver so the timed region is pure
// steady-state serving — the flat-cost claim is that ns/op at 256
// conns stays within 1.5x of 4 conns, and allocs/op stays in low
// single digits. Alloc counts include the in-process client, which
// runs allocation-free at steady state on its timestamp rings.
// Not covered by bench/: its widest workload has 64 connections.
func BenchmarkServerHighFanIn(b *testing.B) {
	for _, conns := range []int{4, 64, 256, 1024} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			s, err := server.Start(server.Config{Workers: 4, Seed: 43})
			if err != nil {
				b.Fatalf("Start: %v", err)
			}
			defer s.Shutdown()
			d, err := loadgen.NewDriver(loadgen.Workload{
				Addr:     s.Addr().String(),
				Conns:    conns,
				Window:   16,
				DS:       server.DSHashmap,
				ReadFrac: 0.5,
				KeySpace: 1 << 14,
				Seed:     43,
			})
			if err != nil {
				b.Fatalf("NewDriver: %v", err)
			}
			defer d.Close()
			// Warm pools, outbufs, and the pump queue before timing.
			if _, err := d.Run(conns * 4); err != nil {
				b.Fatalf("warmup: %v", err)
			}

			before := s.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			res, err := d.Run(b.N)
			b.StopTimer()
			if err != nil {
				b.Fatalf("driver: %v", err)
			}
			if res.Errors != 0 {
				b.Fatalf("%d ops rejected", res.Errors)
			}
			st := s.Snapshot()
			b.ReportMetric(st.MeanBatch, "batch-size")
			b.ReportMetric(res.OpsPerSec, "ops/s")
			b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
			if n := float64(res.Responses); n > 0 {
				b.ReportMetric(float64(st.ReadSyscalls-before.ReadSyscalls)/n, "rsys/op")
				b.ReportMetric(float64(st.WriteSyscalls-before.WriteSyscalls)/n, "wsys/op")
			}
		})
	}
}

// BenchmarkServerOverload measures the serving edge past capacity. The
// hashmap's batch cost is inflated by a 50µs sleep (as in the brownout
// tests), which costs over 100µs here, so capacity measures 14–23k
// ops/s; 64 pre-dialed connections oversubscribe it with 2x and 10x
// closed-loop in-flight load — with admission control off (every excess
// op queues in its shard's pump, bounded only by the connection
// windows, and waits out the whole backlog) and on (the backlog bound,
// at most QueueCap, sheds the excess at the edge with a fast FlagErr).
// goodput-ops/s is the headline: served operations per second, which is
// what shedding protects; ops/s counts a shed as throughput. shed-frac
// reports how much of the offered load the bound refused; errors are
// expected there, not a failure.
// Not covered by bench/: no workload there offers more than capacity.
func BenchmarkServerOverload(b *testing.B) {
	for _, load := range []struct {
		name   string
		window int
	}{{"2x", 4}, {"10x", 20}} {
		for _, admit := range []struct {
			name string
			slo  time.Duration
		}{{"off", 0}, {"on", 2 * time.Millisecond}} {
			b.Run(fmt.Sprintf("load=%s/admit=%s", load.name, admit.name), func(b *testing.B) {
				s, err := server.Start(server.Config{
					Workers:  2,
					Shards:   2,
					Seed:     53,
					QueueCap: 64,
					Window:   256,
					SLO:      admit.slo,
					WrapDS: func(_ int, ds uint8, inner sched.Batched) sched.Batched {
						if ds == server.DSHashmap {
							return &faultinject.Slow{Inner: inner, Delay: 50 * time.Microsecond}
						}
						return inner
					},
				})
				if err != nil {
					b.Fatalf("Start: %v", err)
				}
				defer s.Shutdown()
				d, err := loadgen.NewDriver(loadgen.Workload{
					Addr:     s.Addr().String(),
					Conns:    64,
					Window:   load.window,
					DS:       server.DSHashmap,
					ReadFrac: 0.5,
					KeySpace: 1 << 14,
					Seed:     53,
				})
				if err != nil {
					b.Fatalf("NewDriver: %v", err)
				}
				defer d.Close()
				// With admission on the sampler ticks every 10ms and its
				// rate estimate settles over a few busy ticks, so keep
				// offering load for ~100ms rather than one round.
				for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
					if _, err := d.Run(64 * 20); err != nil {
						b.Fatalf("warmup: %v", err)
					}
				}

				b.ReportAllocs()
				b.ResetTimer()
				res, err := d.Run(b.N)
				b.StopTimer()
				if err != nil {
					b.Fatalf("driver: %v", err)
				}
				if admit.slo == 0 && res.Errors != 0 {
					b.Fatalf("%d ops rejected with admission off", res.Errors)
				}
				st := s.Snapshot()
				shedFrac := float64(res.Errors) / float64(res.Responses)
				b.ReportMetric(res.OpsPerSec*(1-shedFrac), "goodput-ops/s")
				b.ReportMetric(res.OpsPerSec, "ops/s")
				b.ReportMetric(shedFrac, "shed-frac")
				b.ReportMetric(st.MeanBatch, "batch-size")
				b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
			})
		}
	}
}
