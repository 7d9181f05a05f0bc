package sim

import (
	"math"
	"testing"
)

// syntheticSweep generates calibration points from a known ground-truth
// model, as if a loadgen sweep had measured a shard whose behavior the
// twin's own equations describe exactly.
func syntheticSweep(truth Model, fracs []float64) []CalPoint {
	cap := truth.CapacityOpsPerSec()
	pts := make([]CalPoint, 0, len(fracs))
	for _, f := range fracs {
		rate := f * cap
		b := truth.BatchSizeAt(rate)
		pts = append(pts, CalPoint{
			RatePerSec:     rate,
			MeanBatch:      b,
			MeanServiceNS:  truth.ServiceNS(b),
			MeasuredP999NS: truth.PredictP999NS(rate, 0),
		})
	}
	return pts
}

func TestFitModelRecoversGroundTruth(t *testing.T) {
	truth := Model{Workers: 8, SetupNS: 40_000, PerOpNS: 12_000, BaseNS: 55_000, Tail: 3.0}
	pts := syntheticSweep(truth, []float64{0.15, 0.3, 0.5, 0.7, 0.85})
	got, err := FitModel(truth.Workers, pts)
	if err != nil {
		t.Fatalf("FitModel: %v", err)
	}
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if want == 0 {
			if math.Abs(got) > tol {
				t.Errorf("%s = %v, want ~0", name, got)
			}
			return
		}
		if r := math.Abs(got-want) / want; r > tol {
			t.Errorf("%s = %v, want %v (±%.0f%%)", name, got, want, tol*100)
		}
	}
	within("SetupNS", got.SetupNS, truth.SetupNS, 0.05)
	within("PerOpNS", got.PerOpNS, truth.PerOpNS, 0.05)
	within("Tail", got.Tail, truth.Tail, 0.05)
	within("BaseNS", got.BaseNS, truth.BaseNS, 0.10)

	// The fitted model's predictions must track the truth across the
	// sweep — the property `twin -validate` gates on.
	for _, p := range pts {
		pred := got.PredictP999NS(p.RatePerSec, 0)
		if r := math.Abs(pred-p.MeasuredP999NS) / p.MeasuredP999NS; r > 0.10 {
			t.Errorf("rate %.0f: predicted %.0f, measured %.0f (%.1f%% off)",
				p.RatePerSec, pred, p.MeasuredP999NS, r*100)
		}
	}
}

func TestFitModelDegenerateSinglePoint(t *testing.T) {
	pts := []CalPoint{{RatePerSec: 10_000, MeanBatch: 4, MeanServiceNS: 200_000, MeasuredP999NS: 900_000}}
	m, err := FitModel(8, pts)
	if err != nil {
		t.Fatalf("FitModel: %v", err)
	}
	// Proportional fallback: s(4) must pass through the sample.
	if got := m.ServiceNS(4); math.Abs(got-200_000) > 1 {
		t.Errorf("ServiceNS(4) = %v, want 200000", got)
	}
	if m.Tail < 1 || m.Tail > 64 {
		t.Errorf("Tail = %v out of [1,64]", m.Tail)
	}
	if c := m.CapacityOpsPerSec(); c <= 0 || math.IsInf(c, 1) {
		t.Errorf("capacity = %v, want finite positive", c)
	}
}

func TestFitModelRejectsEmpty(t *testing.T) {
	if _, err := FitModel(8, nil); err == nil {
		t.Fatal("FitModel(nil) should error")
	}
	if _, err := FitModel(8, []CalPoint{{RatePerSec: -1}}); err == nil {
		t.Fatal("FitModel with only invalid points should error")
	}
}

func TestModelMonotoneAndDiverges(t *testing.T) {
	m := Model{Workers: 8, SetupNS: 50_000, PerOpNS: 10_000, BaseNS: 20_000, Tail: 2.5}
	cap := m.CapacityOpsPerSec()
	if cap <= 0 {
		t.Fatalf("capacity = %v", cap)
	}
	prev := 0.0
	for _, f := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		p := m.PredictP999NS(f*cap, 0)
		if math.IsInf(p, 1) {
			t.Fatalf("predicted p999 infinite below capacity (f=%v)", f)
		}
		if p < prev {
			t.Fatalf("p999 not monotone in rate: %v after %v (f=%v)", p, prev, f)
		}
		prev = p
	}
	if p := m.PredictP999NS(1.05*cap, 0); !math.IsInf(p, 1) {
		t.Errorf("predicted p999 past capacity = %v, want +Inf", p)
	}
	// Batch size saturates at P under heavy load and stays ≥1 when idle.
	if b := m.BatchSizeAt(100 * cap); b != float64(m.Workers) {
		t.Errorf("BatchSizeAt(100×cap) = %v, want %d", b, m.Workers)
	}
	if b := m.BatchSizeAt(0); b != 1 {
		t.Errorf("BatchSizeAt(0) = %v, want 1", b)
	}
	// Backlog only adds delay.
	if m.PredictP999NS(0.5*cap, 100) <= m.PredictP999NS(0.5*cap, 0) {
		t.Error("backlog did not increase predicted p999")
	}
}

func TestMaxAdmissibleRateInverts(t *testing.T) {
	m := Model{Workers: 8, SetupNS: 50_000, PerOpNS: 10_000, BaseNS: 20_000, Tail: 2.5}
	cap := m.CapacityOpsPerSec()
	for _, f := range []float64{0.25, 0.5, 0.8} {
		slo := m.PredictP999NS(f*cap, 0)
		rate := m.MaxAdmissibleRate(slo, 0)
		// Inverse property: admitting at the returned rate meets the SLO...
		if p := m.PredictP999NS(rate, 0); p > slo*(1+1e-6) {
			t.Errorf("f=%v: p999(maxRate)=%v exceeds slo %v", f, p, slo)
		}
		// ...and the returned rate is tight against the rate that produced it.
		if r := math.Abs(rate-f*cap) / (f * cap); r > 0.01 {
			t.Errorf("f=%v: maxRate=%v, want ~%v", f, rate, f*cap)
		}
	}
	// An SLO below the idle floor admits nothing.
	if r := m.MaxAdmissibleRate(m.PredictP999NS(0, 0)*0.5, 0); r != 0 {
		t.Errorf("maxRate below idle floor = %v, want 0", r)
	}
	// A huge standing backlog shrinks the admissible rate.
	slo := m.PredictP999NS(0.8*cap, 0)
	if m.MaxAdmissibleRate(slo, 10_000) >= m.MaxAdmissibleRate(slo, 0) {
		t.Error("backlog did not shrink admissible rate")
	}
}
