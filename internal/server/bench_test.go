package server_test

import (
	"fmt"
	"testing"
	"time"

	"batcher/internal/loadgen"
	"batcher/internal/sched"
	"batcher/internal/sched/policy"
	"batcher/internal/server"
)

// BenchmarkServerLoopback measures end-to-end serving throughput over
// loopback TCP at increasing connection counts, with the achieved mean
// batch size reported alongside — the connection sweep shows edge
// batching kicking in as concurrency grows.
func BenchmarkServerLoopback(b *testing.B) {
	for _, conns := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			s, err := server.Start(server.Config{Workers: 4, Seed: 42})
			if err != nil {
				b.Fatalf("Start: %v", err)
			}
			defer s.Shutdown()

			ops := b.N / conns
			if ops == 0 {
				ops = 1
			}
			b.ResetTimer()
			res, err := loadgen.Run(loadgen.Workload{
				Addr:     s.Addr().String(),
				Conns:    conns,
				Ops:      ops,
				Window:   8,
				DS:       server.DSSkiplist,
				ReadFrac: 0.5,
				KeySpace: 1 << 14,
				Seed:     42,
			})
			b.StopTimer()
			if err != nil {
				b.Fatalf("loadgen: %v", err)
			}
			if res.Errors != 0 {
				b.Fatalf("%d ops rejected", res.Errors)
			}
			st := s.Snapshot()
			b.ReportMetric(st.MeanBatch, "batch-size")
			b.ReportMetric(res.OpsPerSec, "ops/s")
			b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
			// Syscall amortization: ops per socket syscall on each side
			// of the edge. Counter reads are free, so -short runs record
			// them too.
			if n := float64(res.Responses); n > 0 {
				b.ReportMetric(float64(st.ReadSyscalls)/n, "rsys/op")
				b.ReportMetric(float64(st.WriteSyscalls)/n, "wsys/op")
			}
		})
	}
}

// BenchmarkServerHighFanIn is the reactor's figure of merit: per-op
// cost as fan-in grows from 4 to 1024 connections. Connections are
// pre-dialed by a loadgen.Driver so the timed region is pure
// steady-state serving — the flat-cost claim is that ns/op at 256
// conns stays within 1.5x of 4 conns, and allocs/op stays in low
// single digits. Alloc counts include the in-process client, which
// runs allocation-free at steady state on its timestamp rings.
func BenchmarkServerHighFanIn(b *testing.B) {
	for _, conns := range []int{4, 64, 256, 1024} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			// QueueCap is sized to the offered load (up to 1024 conns x 16
			// in flight): the default 8xP queue would park nearly every op
			// in the saturation path and the bench would measure parking,
			// not the edge.
			s, err := server.Start(server.Config{Workers: 4, Seed: 43, QueueCap: 4096})
			if err != nil {
				b.Fatalf("Start: %v", err)
			}
			defer s.Shutdown()
			d, err := loadgen.NewDriver(loadgen.Workload{
				Addr:     s.Addr().String(),
				Conns:    conns,
				Pipeline: 16,
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

// BenchmarkServerSharded sweeps shard count at fixed fan-in (256
// pre-dialed connections) under uniform and zipfian key distributions.
// shards=1 is the regression anchor: the router fast path must keep it
// within 1.5x of the unsharded HighFanIn numbers. Higher shard counts
// show what per-shard admission buys — or costs — on this box; on the
// 1-CPU CI machine the interesting figure is the flat per-op overhead
// of span grouping, not parallel speedup.
func BenchmarkServerSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		for _, dist := range []string{"uniform", "zipf"} {
			b.Run(fmt.Sprintf("shards=%d/dist=%s", shards, dist), func(b *testing.B) {
				// QueueCap is per shard; keep aggregate admission capacity
				// constant across the sweep so saturation parking does not
				// vary with the shard count.
				s, err := server.Start(server.Config{
					Workers:  2,
					Seed:     47,
					Shards:   shards,
					QueueCap: 4096 / shards,
				})
				if err != nil {
					b.Fatalf("Start: %v", err)
				}
				defer s.Shutdown()
				d, err := loadgen.NewDriver(loadgen.Workload{
					Addr:     s.Addr().String(),
					Conns:    256,
					Pipeline: 16,
					DS:       server.DSHashmap,
					ReadFrac: 0.5,
					KeySpace: 1 << 14,
					KeyDist:  dist,
					Seed:     47,
				})
				if err != nil {
					b.Fatalf("NewDriver: %v", err)
				}
				defer d.Close()
				if _, err := d.Run(256 * 4); err != nil {
					b.Fatalf("warmup: %v", err)
				}

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
			})
		}
	}
}

// BenchmarkServerPolicy sweeps the batch-formation policy at fixed
// fan-in (64 pre-dialed connections, pipeline 16): the same serving
// stack, only the launch decision changes. policy=default is the
// regression anchor — the seam itself must be free, so its numbers
// track BenchmarkServerHighFanIn/conns=64. The batch-size metric is the
// policy's visible effect: size-cap trades it down for latency,
// deadline trades it up.
func BenchmarkServerPolicy(b *testing.B) {
	for _, name := range []string{"default", "size-cap", "deadline"} {
		b.Run("policy="+name, func(b *testing.B) {
			pol, err := policy.ByName(name, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			s, err := server.Start(server.Config{
				Workers:  4,
				Seed:     51,
				QueueCap: 4096,
				Policy:   pol,
			})
			if err != nil {
				b.Fatalf("Start: %v", err)
			}
			defer s.Shutdown()
			d, err := loadgen.NewDriver(loadgen.Workload{
				Addr:     s.Addr().String(),
				Conns:    64,
				Pipeline: 16,
				DS:       server.DSHashmap,
				ReadFrac: 0.5,
				KeySpace: 1 << 14,
				Seed:     51,
			})
			if err != nil {
				b.Fatalf("NewDriver: %v", err)
			}
			defer d.Close()
			if _, err := d.Run(64 * 4); err != nil {
				b.Fatalf("warmup: %v", err)
			}

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
		})
	}
}

// BenchmarkServerBatchDelay measures the phase-attribution round trip:
// requests carry OpFlagPhases, responses echo the stamp vector, and the
// reported metrics decompose client-visible latency into the paper's
// batch-delay term (pending-array arrival to batch landing) and its
// tail. The trailer encode/decode and the per-op histogram
// observations are all inside the timed region.
func BenchmarkServerBatchDelay(b *testing.B) {
	const conns = 16
	s, err := server.Start(server.Config{Workers: 4, Seed: 42})
	if err != nil {
		b.Fatalf("Start: %v", err)
	}
	defer s.Shutdown()

	ops := b.N / conns
	if ops == 0 {
		ops = 1
	}
	b.ResetTimer()
	res, err := loadgen.Run(loadgen.Workload{
		Addr:     s.Addr().String(),
		Conns:    conns,
		Ops:      ops,
		Window:   8,
		DS:       server.DSSkiplist,
		ReadFrac: 0.5,
		KeySpace: 1 << 14,
		Seed:     42,
		Phases:   true,
	})
	b.StopTimer()
	if err != nil {
		b.Fatalf("loadgen: %v", err)
	}
	if res.Errors != 0 {
		b.Fatalf("%d ops rejected", res.Errors)
	}
	if res.BatchDelay == nil || res.BatchDelay.Count() == 0 {
		b.Fatal("no batch-delay observations echoed")
	}
	b.ReportMetric(res.OpsPerSec, "ops/s")
	b.ReportMetric(float64(res.BatchDelay.Quantile(0.99)), "delay-p99-ns")
	b.ReportMetric(res.BatchDelay.Mean(), "delay-mean-ns")
}

// BenchmarkServerConformance prices the always-on conformance monitor
// on the hot serving path. The monitor attaches unconditionally at
// Start, so this is the ordinary pipelined loopback workload with the
// land-path RecordBatch (clock reads, min-pending and publish-sequence
// scan) inside the timed region: the number to watch if the monitor
// ever grows a cost. The reported gauges double as a liveness check
// that the monitor actually saw the run.
func BenchmarkServerConformance(b *testing.B) {
	const conns = 16
	s, err := server.Start(server.Config{Workers: 4, Seed: 44})
	if err != nil {
		b.Fatalf("Start: %v", err)
	}
	defer s.Shutdown()

	ops := b.N / conns
	if ops == 0 {
		ops = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := loadgen.Run(loadgen.Workload{
		Addr:     s.Addr().String(),
		Conns:    conns,
		Ops:      ops,
		Window:   8,
		DS:       server.DSSkiplist,
		ReadFrac: 0.5,
		KeySpace: 1 << 14,
		Seed:     44,
	})
	b.StopTimer()
	if err != nil {
		b.Fatalf("loadgen: %v", err)
	}
	if res.Errors != 0 {
		b.Fatalf("%d ops rejected", res.Errors)
	}
	st := s.Snapshot()
	if st.ConformMaxLandings == 0 || st.ConformHeadroom <= 0 {
		b.Fatal("conformance monitor recorded nothing")
	}
	b.ReportMetric(res.OpsPerSec, "ops/s")
	b.ReportMetric(st.ConformHeadroom, "headroom")
	b.ReportMetric(float64(st.ConformMaxLandings), "max-landings")
}

// BenchmarkServerOverload measures the serving edge past saturation.
// The hashmap's batch cost is inflated to a known 50µs (as in the
// brownout tests) so capacity is fixed at shards × workers/cost =
// 80k ops/s, and 64 pre-dialed connections oversubscribe it with 2x
// and 10x closed-loop in-flight load — with admission control off
// (every excess op takes the saturation-park path) and on (the twin
// sheds the excess at the edge with a fast FlagErr). The admit=off
// rows price the pre-twin brownout behavior; admit=on must stay
// within 1.5x of them — shedding is only worth shipping if saying
// "no" costs less than parking. The shed-frac metric reports how much
// of the offered load the controller refused; errors are expected
// there, not a failure.
func BenchmarkServerOverload(b *testing.B) {
	for _, load := range []struct {
		name     string
		pipeline int
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
							return &slowBatched{inner: inner, delay: 50 * time.Microsecond}
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
					Pipeline: load.pipeline,
					DS:       server.DSHashmap,
					ReadFrac: 0.5,
					KeySpace: 1 << 14,
					Seed:     53,
				})
				if err != nil {
					b.Fatalf("NewDriver: %v", err)
				}
				defer d.Close()
				// Warmup doubles as fitter priming when admission is on:
				// the sampler ticks every 10ms and needs several batch
				// samples plus the rate EWMA ramp before it limits, so
				// keep offering load for ~100ms rather than one round.
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
				b.ReportMetric(res.OpsPerSec, "ops/s")
				b.ReportMetric(float64(res.Errors)/float64(res.Responses), "shed-frac")
				b.ReportMetric(st.MeanBatch, "batch-size")
				b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
			})
		}
	}
}
