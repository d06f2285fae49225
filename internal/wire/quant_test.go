package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// paperSnapshot builds a snapshot at the paper's estimator precision
// (U = 100) with a few links, the shape whose size the quantized layouts
// are designed around.
func paperSnapshot(t *testing.T) *knowledge.Snapshot {
	t.Helper()
	v, err := knowledge.NewView(1, 8, []topology.NodeID{0, 2}, nil, knowledge.Params{Intervals: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		v.BeginPeriod()
	}
	return v.Snapshot()
}

// rawLayoutLen is the length a frame of quantLen bytes carrying snapshot
// s would have if every estimator used the raw float64 layouts (the
// encoder's fallback for degenerate states): the reference the quantized
// layouts are measured against.
func rawLayoutLen(quantLen int, s *knowledge.Snapshot) int {
	n := quantLen
	for i := range s.Procs {
		n += len(appendEstimatorRaw(nil, &s.Procs[i].Est)) - len(appendEstimator(nil, &s.Procs[i].Est))
	}
	for i := range s.Links {
		n += len(appendEstimatorRaw(nil, &s.Links[i].Est)) - len(appendEstimator(nil, &s.Links[i].Est))
	}
	return n
}

// TestQuantizedHeartbeatSizeRatio pins the quantized layouts' wire-level
// win: at the paper's U = 100, a full heartbeat must be at least 1.7x
// smaller than the raw layout of the same snapshot (measured ~3.7x —
// 2-byte codes replace 8-byte floats for every belief).
func TestQuantizedHeartbeatSizeRatio(t *testing.T) {
	snap := paperSnapshot(t)
	quant, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap})
	if err != nil {
		t.Fatal(err)
	}
	raw := rawLayoutLen(len(quant), snap)
	ratio := float64(raw) / float64(len(quant))
	if ratio < 1.7 {
		t.Errorf("quantized heartbeat is %dB vs %dB raw — only %.2fx smaller, want >= 1.7x",
			len(quant), raw, ratio)
	}
	t.Logf("U=100 heartbeat: raw %dB, quantized %dB (%.2fx smaller)", raw, len(quant), ratio)
}

// TestQuantErrorBound is the satellite property test: across random
// lossy observation schedules — uniform and refined grids alike — a
// belief state that crosses the quantized wire moves its posterior mean
// by less than 1e-3, and further hops add nothing (the projection
// property makes re-encoding the decoded state byte-identical).
func TestQuantErrorBound(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			est := bayes.MustNew(100)
			p := rng.Float64() * 0.5 // the schedule's true loss rate
			steps := 1 + rng.Intn(400)
			for i := 0; i < steps; i++ {
				factor := 1 + rng.Intn(3)
				if rng.Float64() < p {
					est.ObserveFailure(factor)
				} else {
					est.ObserveSuccess(factor)
				}
			}
			if trial%3 == 0 {
				est = est.Refine() // exercise the windowed-midpoint layout
			}
			snap := &knowledge.Snapshot{
				From: 1, Seq: uint64(trial + 1),
				Procs: []knowledge.ProcRecord{{ID: 0, Dist: 1, Est: est.State()}},
			}
			frame := &Frame{Kind: FrameHeartbeat, Heartbeat: snap}
			b, err := Encode(frame)
			if err != nil {
				t.Fatal(err)
			}
			f, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bayes.NewFromState(f.Heartbeat.Procs[0].Est)
			if err != nil {
				t.Fatalf("seed %d trial %d: decoded state rejected: %v", seed, trial, err)
			}
			if diff := math.Abs(got.Mean() - est.Mean()); diff > 1e-3 {
				t.Errorf("seed %d trial %d: quantized mean diverged by %v (> 1e-3) after %d obs at p=%.3f",
					seed, trial, diff, steps, p)
			}
			// Second hop: re-encoding the decoded state must reproduce the
			// bytes exactly — multi-hop relays accumulate no further error.
			b2, err := Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, b2) {
				t.Fatalf("seed %d trial %d: second quantized hop changed the bytes", seed, trial)
			}
		}
	}
}

// TestQuantizedDecodeRenormalizes pins the decode-side safety clamp: a
// belief block whose maximum drifts below 0 (a non-rebased sender) comes
// out of the wire re-normalized to a 0 maximum with the pairwise
// differences preserved, so a quantized merge can never inject
// out-of-support estimates.
func TestQuantizedDecodeRenormalizes(t *testing.T) {
	st := bayes.State{
		Mids:       bayes.UniformGridMids(4),
		LogBeliefs: []float64{-1, -2.5, -3, -1.5},
	}
	snap := &knowledge.Snapshot{
		From: 1, Seq: 1,
		Procs: []knowledge.ProcRecord{{ID: 0, Dist: 1, Est: st}},
	}
	b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Heartbeat.Procs[0].Est.LogBeliefs
	maxLB := math.Inf(-1)
	for _, lb := range got {
		if lb > 0 {
			t.Fatalf("decoded log belief %v is positive", lb)
		}
		if lb > maxLB {
			maxLB = lb
		}
	}
	if maxLB != 0 {
		t.Errorf("decoded block maximum is %v, want re-normalized to 0", maxLB)
	}
	for i, want := range []float64{0, -1.5, -2, -0.5} {
		if diff := math.Abs(got[i] - want); diff > 1e-3 {
			t.Errorf("belief %d: got %v, want %v +- 1e-3 after renormalization", i, got[i], want)
		}
	}
}

// TestQuantizedSectionZeroAlloc extends the zero-alloc encode gate to
// the quantized layouts: cutting a snapshot section at the paper's U =
// 100 into a warm buffer, and assembling a delta frame around a shared
// section, allocate nothing.
func TestQuantizedSectionZeroAlloc(t *testing.T) {
	snap := paperSnapshot(t)
	buf := make([]byte, 0, 16384)
	section, err := AppendSnapshotSection(buf, snap)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendSnapshotSection(buf[:0], snap); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("quantized section encode allocated %.1f times per op, want 0", allocs)
	}

	d := &KnowledgeDelta{Since: 3, Ver: 5, Ack: 9, Cadence: 2, Epoch: 4}
	fbuf := make([]byte, 0, len(section)+256)
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := AppendDeltaFrame(fbuf[:0], d, section); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("delta-frame assembly allocated %.1f times per op, want 0", allocs)
	}
}
