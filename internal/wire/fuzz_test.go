package wire

import (
	"bytes"
	"math"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// seedFrames builds one representative frame of every shape the runtime
// produces; they seed the fuzz corpus (alongside the committed files under
// testdata/fuzz) and anchor the round-trip property test.
func seedFrames(tb testing.TB) []*Frame {
	tb.Helper()
	v, err := knowledge.NewView(1, 5, []topology.NodeID{0, 2}, nil, knowledge.Params{Intervals: 8})
	if err != nil {
		tb.Fatal(err)
	}
	v.BeginPeriod()
	snap := v.Snapshot()
	baseVer := v.Version()
	v.BeginPeriod()
	delta, ok := v.DeltaSince(baseVer)
	if !ok {
		tb.Fatal("seed delta not anchorable")
	}
	refined := refinedSnapshot(tb)
	return []*Frame{
		{Kind: FrameHeartbeat, Heartbeat: snap},
		{Kind: FrameData, Data: &DataMsg{Origin: 2, Seq: 7, Root: 2, Body: []byte("payload")}},
		{Kind: FrameData, Data: &DataMsg{
			Origin:      0,
			Seq:         1,
			Root:        0,
			Parents:     []topology.NodeID{topology.None, 0, 0},
			AllocByNode: []int32{0, 2, 1},
			Body:        []byte("tree"),
			Piggyback:   snap,
		}},
		// A real partial delta and the full-snapshot fallback form
		// (Since == 0), so the delta kind inherits the never-panic and
		// round-trip invariants. Cadence 1 is the classic one frame per
		// period (an unset 0 decodes as 1, so seeds spell it out).
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: delta, Since: baseVer, Ver: v.Version(), Ack: 9, Cadence: 1}},
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: v.Snapshot(), Since: 0, Ver: v.Version(), Ack: 0, Cadence: 1}},
		// A stretched-cadence delta.
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: delta, Since: baseVer, Ver: v.Version(), Ack: 9, Cadence: 8}},
		// Epoch-tagged data and delta frames, including a tombstoned slot
		// in the parent vector, and the membership kinds.
		{Kind: FrameData, Data: &DataMsg{
			Origin:  2,
			Seq:     3,
			Root:    2,
			Parents: []topology.NodeID{topology.None, topology.None, topology.None, 2},
			// node 0 departed (tombstoned slot), node 3 joined under root 2
			AllocByNode: []int32{0, 0, 0, 1},
			Body:        []byte("epoch"),
			Epoch:       4,
		}},
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: delta, Since: baseVer, Ver: v.Version(), Ack: 9, Cadence: 2, Epoch: 4}},
		{Kind: FrameJoin, Member: &Membership{Node: 5, Epoch: 3, NumProcs: 6, Departed: []topology.NodeID{1}, Neighbors: []topology.NodeID{0, 2}}},
		{Kind: FrameLeave, Member: &Membership{Node: 1, Epoch: 4, NumProcs: 6, Departed: []topology.NodeID{1, 3}}},
		// Refined (non-uniform) grids exercise the windowed-midpoint
		// layout in every frame kind that carries estimates.
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: refined, Since: 0, Ver: 1, Cadence: 1, Epoch: 2}},
		{Kind: FrameHeartbeat, Heartbeat: refined},
		{Kind: FrameData, Data: &DataMsg{Origin: 1, Seq: 9, Root: 1, Body: []byte("refined"), Piggyback: refined, Epoch: 2}},
		// Epoch-tagged full heartbeat and full-snapshot delta.
		{Kind: FrameHeartbeat, Heartbeat: snap, Epoch: 3},
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Since: 0, Ver: v.Version(), Ack: 2, Cadence: 4, Epoch: 4}},
		// Degenerate estimator states fall back to the raw layouts.
		{Kind: FrameHeartbeat, Heartbeat: degenerateSnapshot(), Epoch: 1},
	}
}

// degenerateSnapshot carries estimator states the quantized layouts
// cannot express — a single interval and a collapsed refined window — so
// the encoder's raw fallback layouts are witnessed in the corpus.
func degenerateSnapshot() *knowledge.Snapshot {
	return &knowledge.Snapshot{
		From: 1, Seq: 4,
		Procs: []knowledge.ProcRecord{
			{ID: 0, Dist: 1, Est: bayes.State{Mids: []float64{0.5}, LogBeliefs: []float64{0}}},
			{ID: 1, Dist: 0, Est: bayes.State{Mids: []float64{0.5, 0.5}, LogBeliefs: []float64{0, -1.25}}},
		},
	}
}

// refinedSnapshot builds a snapshot whose self-estimate carries a
// refined (non-uniform) grid, so quantized encodes hit the windowed
// midpoint layout (flagQWindow), not just the uniform one.
func refinedSnapshot(tb testing.TB) *knowledge.Snapshot {
	tb.Helper()
	v, err := knowledge.NewView(0, 3, []topology.NodeID{1}, nil, knowledge.Params{
		Intervals: 10, AutoRefine: true, RefineMinObs: 4, RefineMass: 0.1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v.BeginPeriod()
	}
	snap := v.Snapshot()
	for _, pr := range snap.Procs {
		if !pr.Est.HasUniformMids() {
			return snap
		}
	}
	tb.Fatal("fixture never produced a refined (non-uniform) grid")
	return nil
}

func nodeIDsEqual(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// floatsMatch compares estimator floats: bit-for-bit when tol is 0 (NaNs
// compare equal to themselves so arbitrary decoded floats still
// round-trip), within tol otherwise, and only by length when tol is +Inf.
func floatsMatch(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	if math.IsInf(tol, 1) {
		return true
	}
	for i := range a {
		if tol == 0 {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		} else if !(math.Abs(a[i]-b[i]) <= tol) {
			return false
		}
	}
	return true
}

func estimatorsMatch(a, b *bayes.State, tol float64) bool {
	return floatsMatch(a.Mids, b.Mids, tol) && floatsMatch(a.LogBeliefs, b.LogBeliefs, tol)
}

func snapshotsMatch(a, b *knowledge.Snapshot, tol float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.From != b.From || a.Seq != b.Seq ||
		len(a.Procs) != len(b.Procs) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Procs {
		x, y := &a.Procs[i], &b.Procs[i]
		if x.ID != y.ID || x.Dist != y.Dist || !estimatorsMatch(&x.Est, &y.Est, tol) {
			return false
		}
	}
	for i := range a.Links {
		x, y := &a.Links[i], &b.Links[i]
		if x.Link != y.Link || x.Dist != y.Dist || !estimatorsMatch(&x.Est, &y.Est, tol) {
			return false
		}
	}
	return true
}

// framesEqual compares two frames field by field, estimator floats
// bit-for-bit.
func framesEqual(a, b *Frame) bool { return framesMatch(a, b, 0) }

// quantTol bounds how far one quantized encode moves a log belief or a
// refined midpoint: half a fixed-point step, at most 64/65535/2.
const quantTol = 1e-3

// framesMatch is framesEqual with estimator floats compared within tol
// (0 means bit-for-bit).
func framesMatch(a, b *Frame, tol float64) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case FrameHeartbeat:
		return a.Epoch == b.Epoch && snapshotsMatch(a.Heartbeat, b.Heartbeat, tol)
	case FrameKnowledgeDelta:
		// Cadence 0 and 1 are the same declaration (one frame per δ), so
		// they compare equal across a round-trip.
		normCad := func(c uint64) uint64 {
			if c == 0 {
				return 1
			}
			return c
		}
		return a.Delta.Since == b.Delta.Since && a.Delta.Ver == b.Delta.Ver &&
			a.Delta.Ack == b.Delta.Ack && normCad(a.Delta.Cadence) == normCad(b.Delta.Cadence) &&
			a.Delta.Epoch == b.Delta.Epoch && snapshotsMatch(a.Delta.Snap, b.Delta.Snap, tol)
	case FrameData:
		x, y := a.Data, b.Data
		if x.Origin != y.Origin || x.Seq != y.Seq || x.Root != y.Root ||
			x.Epoch != y.Epoch || !bytes.Equal(x.Body, y.Body) ||
			!nodeIDsEqual(x.Parents, y.Parents) {
			return false
		}
		if len(x.AllocByNode) != len(y.AllocByNode) {
			return false
		}
		for i := range x.AllocByNode {
			if x.AllocByNode[i] != y.AllocByNode[i] {
				return false
			}
		}
		return snapshotsMatch(x.Piggyback, y.Piggyback, tol)
	case FrameJoin, FrameLeave:
		x, y := a.Member, b.Member
		return x.Node == y.Node && x.Epoch == y.Epoch && x.NumProcs == y.NumProcs &&
			nodeIDsEqual(x.Departed, y.Departed) && nodeIDsEqual(x.Neighbors, y.Neighbors)
	}
	return false
}

// FuzzDecode is the codec's safety net: Decode must never panic on
// arbitrary bytes, and any frame it accepts must re-encode, decode again
// and re-encode to the same bytes. Estimators are quantized on encode, so
// the first re-encode may move a belief by up to a fixed-point step (and
// rescales raw-layout input); from then on encode/decode is the identity
// because quantization is a projection.
func FuzzDecode(f *testing.F) {
	for _, frame := range seedFrames(f) {
		b, err := Encode(frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{magic})
	f.Add([]byte{magic, version, byte(FrameData)})
	f.Add([]byte{magic, version, byte(FrameHeartbeat), 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := Decode(data)
		if err != nil {
			return // malformed input rejected without panicking: fine
		}
		reencoded, err := Encode(frame)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		again, err := Decode(reencoded)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if !framesMatch(frame, again, math.Inf(1)) {
			t.Fatalf("round-trip drift:\nfirst:  %+v\nsecond: %+v", frame, again)
		}
		third, err := Encode(again)
		if err != nil {
			t.Fatalf("second decode failed to re-encode: %v", err)
		}
		if !bytes.Equal(reencoded, third) {
			t.Fatalf("encode is not a projection:\nfirst:  %x\nsecond: %x", reencoded, third)
		}
	})
}

// TestEncodeDecodeRoundTrip pins the round-trip property on the seed
// frames outside the fuzz engine, so `go test` alone covers it: every
// field survives exactly, estimator floats within one quantization step,
// and re-encoding the decoded frame reproduces the bytes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for i, frame := range seedFrames(t) {
		b, err := Encode(frame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if !framesMatch(frame, got, quantTol) {
			t.Fatalf("seed %d: round-trip drift: %+v vs %+v", i, frame, got)
		}
		again, err := Encode(got)
		if err != nil {
			t.Fatalf("seed %d: decoded frame failed to re-encode: %v", i, err)
		}
		if !bytes.Equal(b, again) {
			t.Fatalf("seed %d: re-encoding the decoded frame changed the bytes", i)
		}
	}
}
