package main

// The watch dashboard's "-once renders the same numbers" witness: a
// real sharded server is started in-process, driven with traffic, and
// one frame is rendered from exactly the source the subcommand uses — a
// DSStats fetch over the wire. The frame must carry the stats
// document's own figures, measured p999 included, with admission on
// and with it off.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"batcher/internal/loadgen"
	"batcher/internal/server"
)

func TestWatchRenderOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		slo  time.Duration
	}{{"admission-on", time.Second}, {"admission-off", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := server.Start(server.Config{
				Workers: 2,
				Shards:  2,
				Seed:    3101,
				SLO:     tc.slo,
			})
			if err != nil {
				t.Fatalf("Start: %v", err)
			}
			defer s.Shutdown()
			addr := s.Addr().String()

			if _, err := loadgen.Run(loadgen.Workload{
				Addr: addr, Conns: 4, Ops: 200, Window: 8,
				DS: server.DSHashmap, KeySpace: 1 << 12, Seed: 3102,
			}); err != nil {
				t.Fatalf("loadgen: %v", err)
			}

			st, err := fetchStats(addr)
			if err != nil {
				t.Fatalf("fetchStats: %v", err)
			}
			if st.Shards != 2 || len(st.PerShard) != 2 {
				t.Fatalf("stats document: shards=%d per_shard=%d", st.Shards, len(st.PerShard))
			}
			// measured_p999_ns has one definition, with admission on or
			// off: a busy shard never shows an empty measured column.
			for _, ss := range st.PerShard {
				if ss.Completed > 0 && ss.MeasuredP999NS <= 0 {
					t.Errorf("shard %d completed %d ops but measured_p999_ns = %d",
						ss.Shard, ss.Completed, ss.MeasuredP999NS)
				}
			}

			var buf bytes.Buffer
			renderWatch(&buf, st, nil, 0)
			out := buf.String()
			t.Logf("frame:\n%s", out)

			// The frame renders the stats document's numbers, not
			// approximations of them: the global line carries the rollup
			// gauges verbatim...
			wantGlobal := fmt.Sprintf("headroom %.3f  max_landings %d\n",
				st.ConformHeadroom, st.ConformMaxLandings)
			if !strings.Contains(out, wantGlobal) {
				t.Errorf("frame missing global gauges %q", wantGlobal)
			}
			// ...and each shard's row carries its own admission limit,
			// measured p999, headroom and landings columns.
			for _, ss := range st.PerShard {
				row := fmt.Sprintf("%7d %12s %9.3f %6d",
					ss.AdmitLimit, fmtNS(ss.MeasuredP999NS),
					ss.Conformance.Headroom, ss.Conformance.MaxLandings)
				if !strings.Contains(out, row) {
					t.Errorf("frame missing shard %d columns %q", ss.Shard, row)
				}
			}
			if !strings.Contains(out, "limit") || !strings.Contains(out, "meas_p999") {
				t.Error("frame missing the per-shard table header")
			}
		})
	}
}
