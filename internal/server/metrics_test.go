package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"batcher/internal/faultinject"
	"batcher/internal/loadgen"
	"batcher/internal/obs"
	"batcher/internal/sched"
	"batcher/internal/server"
)

// promSamples scrape-parses a Prometheus text exposition and returns
// the samples keyed by name+labels, failing the test on any line that
// is not a well-formed comment or sample.
func promSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (-?[0-9.eE+-]+|NaN|\+Inf)$`)
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			if m[2] == "+Inf" {
				v = math.Inf(1)
			} else {
				t.Fatalf("bad sample value in %q: %v", line, err)
			}
		}
		out[m[1]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// hammer runs conns pipelined counter-increment connections of per ops
// each against addr.
func hammer(t *testing.T, addr string, conns, per int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := loadgen.Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			for k := 0; k < per; k++ {
				if _, err := cl.Do(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1}); err != nil {
					t.Errorf("do: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMetricsScrape drives traffic, scrapes /metrics, and checks both
// that the exposition parses cleanly and that the headline figures
// agree with the server's own live counters — in particular, the
// batch-size histogram mean must match LiveBatchStats (same increment
// site, so exactly, well inside the 1% acceptance bound).
func TestMetricsScrape(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, Seed: 31, TraceRing: 1 << 12, SLO: time.Second})
	const conns, per = 8, 100
	hammer(t, s.Addr().String(), conns, per)
	// The admission sampler publishes on its own tick; wait for the one
	// that has seen the traffic.
	for deadline := time.Now().Add(5 * time.Second); s.Snapshot().PerShard[0].AdmitLimit == 0; {
		if time.Now().After(deadline) {
			t.Fatal("admission sampler published no limit after served traffic")
		}
		time.Sleep(time.Millisecond)
	}

	srv := httptest.NewServer(s.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The scrape races live counters, so compare against a snapshot
	// taken after traffic quiesced (hammer has joined; nothing is in
	// flight).
	samples := promSamples(t, string(body))
	st := s.Snapshot()

	// Every registered family must appear in the scrape — a registered
	// gauge that never renders is a silent observability hole. Histogram
	// families render as _bucket/_sum/_count samples.
	for _, fam := range s.Metrics().Names() {
		found := false
		for key := range samples {
			if key == fam || strings.HasPrefix(key, fam+"{") ||
				strings.HasPrefix(key, fam+"_bucket") ||
				strings.HasPrefix(key, fam+"_sum") ||
				strings.HasPrefix(key, fam+"_count") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registered family %q missing from the scrape", fam)
		}
	}
	// The conformance families are always-on.
	for _, fam := range []string{
		"batcherd_conformance_headroom",
		"batcherd_conformance_span_max_ns",
		"batcherd_conformance_gap_max_ns",
		"batcherd_conformance_delay_max_ns",
		"batcherd_conformance_max_landings",
		"batcherd_conformance_violations_total",
		"batcherd_op_total_ns",
	} {
		if _, ok := samples[fam+`{shard="0"}`]; !ok {
			if _, ok := samples[fam+`_count{shard="0"}`]; !ok {
				t.Errorf("conformance family %q has no shard-0 sample", fam)
			}
		}
	}
	if v := samples[`batcherd_conformance_violations_total{shard="0"}`]; v != 0 {
		t.Errorf("conformance violations = %v on a healthy run", v)
	}
	if h := samples[`batcherd_conformance_headroom{shard="0"}`]; h <= 0 || h > 1.0 {
		t.Errorf("conformance headroom = %v, want in (0, 1.0]", h)
	}

	// The admission families report the bound's operands (SLO is on): a
	// served shard has a measured rate and a limit inside
	// [Workers, QueueCap = 8·Workers], and 8 synchronous conns never
	// stand deeper than that.
	if r := samples[`batcherd_admission_service_rate{shard="0"}`]; r <= 0 {
		t.Errorf("admission service rate = %v after %d served ops", r, conns*per)
	}
	if l := samples[`batcherd_admission_limit_ops{shard="0"}`]; l < 4 || l > 32 {
		t.Errorf("admission limit = %v, want in [4, 32]", l)
	}
	if got := samples[`batcherd_admission_shed_total{shard="0"}`]; got != float64(st.Shed) || got != 0 {
		t.Errorf("admission shed = %v, snapshot %d, want 0", got, st.Shed)
	}
	if got := samples[`batcherd_admission_slo_ns{shard="0"}`]; got != float64(time.Second) {
		t.Errorf("admission slo = %v, want %v", got, float64(time.Second))
	}

	if got := samples["batcherd_ops_accepted_total"]; got != float64(st.Accepted) || got < conns*per {
		t.Fatalf("accepted = %v, snapshot %d, sent %d", got, st.Accepted, conns*per)
	}
	if got := samples["batcherd_ops_completed_total"]; got != float64(st.Completed) {
		t.Fatalf("completed = %v, snapshot %d", got, st.Completed)
	}
	if samples["batcherd_workers"] != 4 {
		t.Fatalf("workers gauge = %v", samples["batcherd_workers"])
	}

	count := samples[`batcherd_batch_size_count{shard="0"}`]
	sum := samples[`batcherd_batch_size_sum{shard="0"}`]
	batches, ops := s.Runtime().LiveBatchStats()
	if count != float64(batches) || sum != float64(ops) {
		t.Fatalf("batch histogram %v/%v disagrees with LiveBatchStats %d/%d",
			count, sum, batches, ops)
	}
	if count == 0 {
		t.Fatal("no batches recorded")
	}
	histMean := sum / count
	liveMean := float64(ops) / float64(batches)
	if math.Abs(histMean-liveMean) > 0.01*liveMean {
		t.Fatalf("histogram mean %v vs LiveBatchStats mean %v: off by more than 1%%",
			histMean, liveMean)
	}

	// Latency histograms: every accepted counter op was observed.
	if got := samples[`batcherd_service_latency_ns_count{ds="counter"}`]; got != float64(st.Accepted) {
		t.Fatalf("latency count = %v, want %d", got, st.Accepted)
	}
	if samples[`batcherd_service_latency_ns_sum{ds="counter"}`] <= 0 {
		t.Fatal("latency sum not positive")
	}
}

// TestChaosTraceExport runs a chaos workload (fault-injected panicking
// skip list beside healthy counter traffic) on a traced server and
// checks the trace exports as Chrome-loadable JSON containing batch
// spans and the contained-panic instants.
func TestChaosTraceExport(t *testing.T) {
	const poison = int64(-0xBAD)
	s, err := server.Start(server.Config{
		Workers:   4,
		Seed:      78,
		TraceRing: 1 << 12,
		WrapDS: func(_ int, ds uint8, b sched.Batched) sched.Batched {
			if ds == server.DSSkiplist {
				return &faultinject.Panicker{Inner: b, Poison: poison}
			}
			return b
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	addr := s.Addr().String()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, err := loadgen.Dial(addr)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer cl.Close()
		for i := 0; i < 20; i++ {
			r, err := cl.Do(server.Request{DS: server.DSSkiplist, Op: server.OpInsert, Key: poison, Val: 1})
			if err != nil {
				t.Errorf("do: %v", err)
				return
			}
			if !r.Err() {
				t.Errorf("poisoned op %d not FlagErr", i)
			}
		}
	}()
	hammer(t, addr, 4, 100)
	wg.Wait()

	tr := s.Tracer()
	if tr == nil {
		t.Fatal("TraceRing did not attach a tracer")
	}
	evs := tr.Snapshot()
	kinds := obs.CountKinds(evs)
	if kinds[obs.EvBatchLand] == 0 || kinds[obs.EvPumpAdmit] == 0 {
		t.Fatalf("trace missing core events: %v", kinds)
	}
	if int64(kinds[obs.EvPanicContained]) != s.Runtime().BatchPanics() {
		t.Fatalf("%d panic events for %d contained panics",
			kinds[obs.EvPanicContained], s.Runtime().BatchPanics())
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var spans, panics int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "batch" {
			spans++
		}
		if e.Name == "panic-contained" {
			panics++
		}
	}
	if spans == 0 || panics == 0 {
		t.Fatalf("export has %d batch spans, %d panic instants; want both > 0", spans, panics)
	}
}
