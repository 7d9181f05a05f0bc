package sim

// The analytical twin: a calibrated closed-form companion to the DAG
// simulator that predicts serving latency as a function of offered
// load. Where the simulator replays the paper's cost model step by
// step, the twin collapses it to the three quantities that govern a
// batcherd shard at steady state:
//
//   - the batch service curve s(b) = SetupNS + PerOpNS·b — the wall
//     time one batch of b operations occupies the shard (the BOP span
//     plus launch/land overhead), fitted from measured (batch size,
//     exec-phase duration) pairs;
//   - the achieved batch size at arrival rate λ: trapped workers
//     accumulate arrivals while the in-flight batch runs (Invariant 1
//     admits one batch at a time), so b solves the fixed point
//     b = min(P, 1 + λ·s(b)) — Invariant 2 caps it at P;
//   - the per-operation delay envelope: Theorem 5.4 charges each
//     operation at most two batch landings of wait (Lemma 2), i.e.
//     2·s(b), on top of the queueing delay in front of the pending
//     array, modeled as an M/D/1 wait with deterministic service
//     s(b) per batch of b, plus the drain time of any standing
//     backlog.
//
// Calibration (FitModel) anchors the free constants against measured
// sweeps: the service curve by least squares over (b, s) samples, and
// the tail mapping p999 ≈ BaseNS + Tail·delay by least squares over
// (modeled delay, measured p999) points. The Model is an offline
// capacity-planning tool: `batcherlab twin` predicts and validates
// latency-vs-load curves from a recorded sweep. The server does not use
// it — its admission control bounds the measured backlog instead
// (DESIGN.md §15).

import (
	"errors"
	"fmt"
	"math"
)

// Model is a calibrated analytical twin of one shard (one scheduler
// runtime with P workers and one pending array).
type Model struct {
	// Workers is P, the shard's worker count — the Invariant 2 batch
	// size cap.
	Workers int
	// SetupNS and PerOpNS parameterize the batch service curve
	// s(b) = SetupNS + PerOpNS·b, in nanoseconds.
	SetupNS float64
	PerOpNS float64
	// BaseNS is the load-independent latency floor (wire, decode,
	// completion plumbing) folded out of the calibration points.
	BaseNS float64
	// Tail maps the modeled mean delay onto the measured p999: the
	// twin predicts p999 ≈ BaseNS + Tail·delay(λ). Calibrated by
	// FitModel; a Model built by hand should use a small constant
	// (2–4) — higher is more conservative.
	Tail float64
}

// CalPoint is one measured calibration sample: a sustained run at one
// offered rate, with the achieved mean batch size, the mean exec-phase
// duration (batch launch→land, i.e. the batch service time seen by its
// operations), and the measured end-to-end p999.
type CalPoint struct {
	RatePerSec     float64 `json:"rate_per_sec"`
	MeanBatch      float64 `json:"mean_batch"`
	MeanServiceNS  float64 `json:"mean_service_ns"`
	MeasuredP999NS float64 `json:"measured_p999_ns"`
}

// ServiceNS returns the modeled service time of one batch of b
// operations, in nanoseconds. Batch sizes below one clamp to one.
func (m Model) ServiceNS(b float64) float64 {
	if b < 1 {
		b = 1
	}
	return m.SetupNS + m.PerOpNS*b
}

// BatchSizeAt returns the achieved steady-state batch size at an
// offered rate (operations per second): the fixed point of
// b = min(P, 1 + λ·s(b)), found by iteration (the map is monotone and
// bounded, so it converges in a few steps).
func (m Model) BatchSizeAt(ratePerSec float64) float64 {
	p := float64(m.Workers)
	if p < 1 {
		p = 1
	}
	lambda := ratePerSec / 1e9 // ops per nanosecond
	b := 1.0
	for i := 0; i < 64; i++ {
		next := 1 + lambda*m.ServiceNS(b)
		if next > p {
			next = p
		}
		if math.Abs(next-b) < 1e-9 {
			b = next
			break
		}
		b = next
	}
	return b
}

// CapacityOpsPerSec returns the shard's modeled saturation throughput:
// full batches of P operations back to back, P/s(P) scaled to ops/sec.
func (m Model) CapacityOpsPerSec() float64 {
	p := float64(m.Workers)
	if p < 1 {
		p = 1
	}
	s := m.ServiceNS(p)
	if s <= 0 {
		return math.Inf(1)
	}
	return p / s * 1e9
}

// Utilization returns λ/μ at the offered rate: the fraction of the
// shard's batch-service capacity the rate consumes (≥1 means the
// queue grows without bound).
func (m Model) Utilization(ratePerSec float64) float64 {
	b := m.BatchSizeAt(ratePerSec)
	s := m.ServiceNS(b)
	if s <= 0 {
		return 0
	}
	mu := b / s * 1e9 // ops per second through batches of size b
	if mu <= 0 {
		return math.Inf(1)
	}
	return ratePerSec / mu
}

// QueueWaitNS returns the modeled steady-state queueing delay in front
// of the pending array at the offered rate: an M/D/1 wait with
// deterministic service s(b) per batch, ρ·s(b)/(2(1−ρ)). Infinite at
// or past saturation.
func (m Model) QueueWaitNS(ratePerSec float64) float64 {
	rho := m.Utilization(ratePerSec)
	if rho >= 1 {
		return math.Inf(1)
	}
	if rho < 0 {
		rho = 0
	}
	s := m.ServiceNS(m.BatchSizeAt(ratePerSec))
	return rho * s / (2 * (1 - rho))
}

// DelayNS returns the modeled mean per-operation delay at the offered
// rate with a standing backlog of queued operations: the Theorem 5.4
// batch-delay envelope (at most two batch landings, 2·s(b), by
// Lemma 2) plus the M/D/1 queueing wait plus the time to drain the
// backlog at the achieved batch throughput.
func (m Model) DelayNS(ratePerSec float64, backlog int) float64 {
	b := m.BatchSizeAt(ratePerSec)
	s := m.ServiceNS(b)
	w := m.QueueWaitNS(ratePerSec)
	if math.IsInf(w, 1) {
		return w
	}
	drain := 0.0
	if backlog > 0 && b > 0 {
		drain = float64(backlog) * s / b
	}
	return 2*s + w + drain
}

// PredictP999NS predicts the end-to-end p999 latency at the offered
// rate with a standing backlog: BaseNS + Tail·delay. Infinite at or
// past saturation (the queue diverges; any finite number would be a
// lie).
func (m Model) PredictP999NS(ratePerSec float64, backlog int) float64 {
	tail := m.Tail
	if tail < 1 {
		tail = 1
	}
	d := m.DelayNS(ratePerSec, backlog)
	if math.IsInf(d, 1) {
		return d
	}
	return m.BaseNS + tail*d
}

// MaxAdmissibleRate inverts the prediction: the largest offered rate
// (ops/sec) whose predicted p999, with the given standing backlog,
// stays at or below sloNS. PredictP999NS is monotone non-decreasing in
// the rate, so a bisection over (0, capacity) finds it. Returns 0 when
// even an idle shard misses the SLO (the backlog alone blows it).
func (m Model) MaxAdmissibleRate(sloNS float64, backlog int) float64 {
	if m.PredictP999NS(0, backlog) > sloNS {
		return 0
	}
	lo, hi := 0.0, m.CapacityOpsPerSec()
	if math.IsInf(hi, 1) {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.PredictP999NS(mid, backlog) <= sloNS {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// String summarizes the fitted model.
func (m Model) String() string {
	return fmt.Sprintf(
		"twin{P=%d s(b)=%.0f%+.0f·b ns base=%.0fns tail=%.2f capacity=%.0f ops/s}",
		m.Workers, m.SetupNS, m.PerOpNS, m.BaseNS, m.Tail, m.CapacityOpsPerSec())
}

// FitModel calibrates a Model from measured sweep points. The service
// curve comes from least squares over (MeanBatch, MeanServiceNS); the
// tail mapping from least squares of MeasuredP999NS against the
// modeled delay at each point's rate. Degenerate inputs (one point,
// identical batch sizes, a flat or inverted p999 trend) fall back to
// proportional-service and mean-anchored estimates rather than
// failing: a rough twin that tracks the calibration data beats no
// twin. At least one point with positive rate and service is required.
func FitModel(workers int, pts []CalPoint) (Model, error) {
	if workers < 1 {
		workers = 1
	}
	m := Model{Workers: workers}
	var used []CalPoint
	for _, p := range pts {
		if p.RatePerSec > 0 && p.MeanServiceNS > 0 && p.MeanBatch >= 1 {
			used = append(used, p)
		}
	}
	if len(used) == 0 {
		return m, errors.New("sim: FitModel needs at least one point with positive rate, batch size, and service time")
	}

	m.SetupNS, m.PerOpNS = fitServiceCurve(used)

	// Tail mapping: p999_i ≈ BaseNS + Tail·x_i where x_i is the
	// modeled delay at point i's rate (no standing backlog during a
	// paced calibration run). The least squares is weighted by 1/y²,
	// i.e. it minimizes RELATIVE error: a sweep's near-capacity points
	// are an order of magnitude above its low-load points, and an
	// absolute fit would buy accuracy at the knee by overshooting the
	// whole admissible region — the part of the curve a capacity plan
	// reads.
	var sw, sx, sy, sxx, sxy, n float64
	for _, p := range used {
		x := m.DelayNS(p.RatePerSec, 0)
		if math.IsInf(x, 1) || p.MeasuredP999NS <= 0 {
			continue
		}
		w := 1 / (p.MeasuredP999NS * p.MeasuredP999NS)
		n++
		sw += w
		sx += w * x
		sy += w * p.MeasuredP999NS
		sxx += w * x * x
		sxy += w * x * p.MeasuredP999NS
	}
	const maxTail = 64
	if n >= 2 {
		det := sw*sxx - sx*sx
		if det > 1e-6*sxx*sw {
			m.Tail = (sw*sxy - sx*sy) / det
			m.BaseNS = (sy - m.Tail*sx) / sw
			if m.BaseNS < 0 && sxx > 0 {
				// A negative intercept is unphysical; refit the slope
				// through the origin rather than clamping, which would
				// shift every low-load prediction up by the clamp.
				m.BaseNS = 0
				m.Tail = sxy / sxx
			}
		}
	}
	if m.Tail < 1 || m.Tail > maxTail || math.IsNaN(m.Tail) {
		// Flat, inverted, or single-point trend: anchor on the mean
		// ratio instead, so the fit still passes through the cloud.
		m.Tail = 1
		m.BaseNS = 0
		if n > 0 && sx > 0 {
			if r := sy / sx; r > 1 && r <= maxTail {
				m.Tail = r
			} else {
				m.BaseNS = (sy - sx) / sw
			}
		}
	}
	if m.BaseNS < 0 {
		m.BaseNS = 0
	}
	return m, nil
}

// fitServiceCurve least-squares s(b) = s0 + s1·b over the points,
// falling back to a proportional fit through the origin when the batch
// sizes do not spread enough to separate setup from per-op cost (the
// proportional fit overestimates s(P), which errs on the conservative
// side for capacity).
func fitServiceCurve(pts []CalPoint) (s0, s1 float64) {
	var sb, ss, sbb, sbs, n float64
	for _, p := range pts {
		n++
		sb += p.MeanBatch
		ss += p.MeanServiceNS
		sbb += p.MeanBatch * p.MeanBatch
		sbs += p.MeanBatch * p.MeanServiceNS
	}
	det := n*sbb - sb*sb
	if n >= 2 && det > 1e-6*sbb*n {
		s1 = (n*sbs - sb*ss) / det
		s0 = (ss - s1*sb) / n
		if s0 >= 0 && s1 >= 0 && (s0 > 0 || s1 > 0) {
			return s0, s1
		}
	}
	// Proportional fallback: s(b) = (mean service / mean batch)·b.
	if sb > 0 {
		return 0, ss / sb
	}
	return 0, ss / n
}
