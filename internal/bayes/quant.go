package bayes

import "math"

// Fixed-point quantization for the wire format's belief layouts.
//
// A posterior's useful precision is ~1e-3 (interval width 1/U with
// U ≈ 100), yet a float64 per log belief and refined midpoint would
// spend 8 bytes on each. The quantized layouts replace both with uint16
// fixed-point codes scaled to the value's actual support:
//
//   - Log beliefs are non-positive and, after the estimator's running
//     rebase, the maximum is 0. Mass below e^BeliefFloor is statistically
//     indistinguishable from zero, so beliefs quantize over
//     [scale, 0] where scale = max(BeliefFloor, min(logBel)) ships once
//     per estimator as a float64 — a shared-exponent block: 2 bytes per
//     belief instead of 8.
//   - Refined midpoints lie strictly inside (0,1); the first and last
//     ship exact and the interior quantizes over [first, last].
//
// Error budget: the belief step is |scale|/65535 ≤ 64/65535 ≈ 9.8e-4 in
// log space, so each weight carries a relative error ≤ ~4.9e-4 and the
// posterior mean moves by well under 1e-3 (pinned by TestQuantErrorBound
// in internal/wire). Quantization is a projection: quantizing an
// already-dequantized state reproduces it bit-exactly, so estimates that
// hop across several links do not drift further than the first hop.

const (
	// BeliefFloor is the most negative log belief the quantized layouts
	// can represent. e^-64 ≈ 1.6e-28 of posterior mass — far below any
	// weight that could influence a mean at the wire's precision — so
	// clamping to it loses nothing observable, while bounding the
	// quantization step at 64/65535 in log space.
	BeliefFloor = -64.0

	// quantSteps is the fixed-point range of one uint16 code.
	quantSteps = 65535
)

// BeliefQuantScale returns the shared scale for a log-belief block: the
// smallest log belief, clamped to BeliefFloor, and to ≤ 0 so the zero
// state (fresh estimator, all beliefs 0) yields scale 0. The scale ships
// once per estimator; every belief quantizes as a fraction of it.
func BeliefQuantScale(logBeliefs []float64) float64 {
	scale := 0.0
	for _, lb := range logBeliefs {
		if lb < scale {
			scale = lb
		}
	}
	if scale < BeliefFloor {
		scale = BeliefFloor
	}
	return scale
}

// BeliefQuant is the fixed-point mapping of one log-belief block: codes
// 0..65535 over [scale, 0]. It is built once per block, so converting a
// belief costs one multiply instead of a division.
type BeliefQuant struct {
	scale   float64
	toCode  float64 // quantSteps / scale; 0 for the all-zero block
	perCode float64 // scale / quantSteps
}

// NewBeliefQuant builds the mapping for a block whose shared scale (see
// BeliefQuantScale) is scale.
func NewBeliefQuant(scale float64) BeliefQuant {
	if scale == 0 {
		return BeliefQuant{} // fresh estimator: every belief is code 0, value 0
	}
	return BeliefQuant{scale: scale, toCode: quantSteps / scale, perCode: scale / quantSteps}
}

// Code maps one log belief to its fixed-point code, rounding to the
// nearest step. Values below scale — and NaN — clamp to scale (the
// BeliefFloor cut); values above 0 clamp to 0 (rebase tolerance).
func (q BeliefQuant) Code(lb float64) uint16 {
	if !(lb > q.scale) {
		lb = q.scale
	}
	if lb > 0 {
		lb = 0
	}
	return uint16(lb*q.toCode + 0.5)
}

// Belief is the inverse of Code. The minimum belief of a block always
// carries code 65535 (or the block is all-zero), and that code maps back
// to scale itself — a computed scale/65535*65535 is not always bit-exact
// in floating point — so BeliefQuantScale of the decoded block
// reproduces scale exactly and quantization is idempotent across hops.
func (q BeliefQuant) Belief(c uint16) float64 {
	if c == quantSteps {
		return q.scale
	}
	return float64(c) * q.perCode
}

// QuantizeMid maps a refined-grid midpoint to its fixed-point code over
// the grid's [first, last] span. Callers ship first and last exact and
// quantize only the interior, so the span is always representable.
func QuantizeMid(m, first, last float64) uint16 {
	if last <= first {
		return 0
	}
	if m < first {
		m = first
	}
	if m > last {
		m = last
	}
	return uint16(math.Round((m - first) / (last - first) * quantSteps))
}

// DequantizeMid is the inverse of QuantizeMid.
func DequantizeMid(q uint16, first, last float64) float64 {
	return first + (last-first)*float64(q)/quantSteps
}
