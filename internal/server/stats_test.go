package server_test

// The stats renderer's "prints the document's own numbers" witness: a
// real sharded server is started in-process, driven with traffic, and
// one frame is rendered from exactly the source `batcherd stats` and
// `batcherlab watch -once` use — a DSStats fetch over the wire. The
// frame must carry the stats document's own figures, measured p999
// included, with admission on and with it off.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"batcher/internal/loadgen"
	"batcher/internal/server"
)

func TestStatsRender(t *testing.T) {
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

			c, err := loadgen.Dial(addr)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			st, err := c.Stats()
			c.Close()
			if err != nil {
				t.Fatalf("Stats: %v", err)
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
			st.Render(&buf, nil, 0)
			out := buf.String()
			t.Logf("frame:\n%s", out)

			// The frame renders the stats document's numbers, not
			// approximations of them: the rollup lines carry the ledger
			// and the gauges verbatim...
			for _, want := range []string{
				fmt.Sprintf("accepted=%d rejected=%d completed=%d", st.Accepted, st.Rejected, st.Completed),
				fmt.Sprintf("%d batches, %d ops, mean size %.2f", st.Batches, st.BatchedOps, st.MeanBatch),
				fmt.Sprintf("offered=%d shed=%d", st.Offered, st.Shed),
				fmt.Sprintf("headroom=%.3f max_landings=%d", st.ConformHeadroom, st.ConformMaxLandings),
			} {
				if !strings.Contains(out, want) {
					t.Errorf("frame missing %q", want)
				}
			}
			// ...and each shard's row carries its own admission limit,
			// measured p999, headroom and landings columns.
			rows := shardRows(t, out)
			for _, ss := range st.PerShard {
				row := rows[fmt.Sprint(ss.Shard)]
				for col, want := range map[string]string{
					"accepted":  fmt.Sprint(ss.Accepted),
					"limit":     fmt.Sprint(ss.AdmitLimit),
					"meas_p999": time.Duration(ss.MeasuredP999NS).Round(time.Microsecond).String(),
					"headroom":  fmt.Sprintf("%.3f", ss.Conformance.Headroom),
					"lands":     fmt.Sprint(ss.Conformance.MaxLandings),
				} {
					if row[col] != want {
						t.Errorf("shard %d column %s = %q, want %q", ss.Shard, col, row[col], want)
					}
				}
			}

			// Against itself as the previous frame, every interval rate
			// is zero.
			buf.Reset()
			st.Render(&buf, &st, 1)
			rows = shardRows(t, buf.String())
			for _, ss := range st.PerShard {
				if r := rows[fmt.Sprint(ss.Shard)]; r["ops/s"] != "0" || r["shed/s"] != "0.0" {
					t.Errorf("shard %d interval rates ops/s=%q shed/s=%q, want 0", ss.Shard, r["ops/s"], r["shed/s"])
				}
			}
		})
	}
}

// shardRows parses a rendered frame's per-shard table into one
// column-name→value map per shard, keyed by the shard column.
func shardRows(t *testing.T, frame string) map[string]map[string]string {
	t.Helper()
	var header []string
	rows := map[string]map[string]string{}
	for _, line := range strings.Split(frame, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "shard":
			header = f
		case header != nil && len(f) == len(header):
			row := map[string]string{}
			for i, col := range header {
				row[col] = f[i]
			}
			rows[f[0]] = row
		}
	}
	if header == nil {
		t.Fatal("frame has no per-shard table header")
	}
	return rows
}
