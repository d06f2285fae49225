package wire

import (
	"bytes"
	"strings"
	"testing"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

func heartbeatSnapshot(t *testing.T) *knowledge.Snapshot {
	t.Helper()
	v, err := knowledge.NewView(1, 4, []topology.NodeID{0, 2}, nil, knowledge.Params{Intervals: 10})
	if err != nil {
		t.Fatal(err)
	}
	v.BeginPeriod()
	return v.Snapshot()
}

func TestHeartbeatRoundTrip(t *testing.T) {
	snap := heartbeatSnapshot(t)
	b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameHeartbeat || f.Heartbeat == nil {
		t.Fatal("frame shape lost")
	}
	if f.Heartbeat.From != 1 || f.Heartbeat.Seq != 1 {
		t.Errorf("header lost: %+v", f.Heartbeat)
	}
	if len(f.Heartbeat.Procs) != len(snap.Procs) || len(f.Heartbeat.Links) != len(snap.Links) {
		t.Errorf("payload lost: %d procs %d links", len(f.Heartbeat.Procs), len(f.Heartbeat.Links))
	}
	// The decoded snapshot merges cleanly into another view.
	other, err := knowledge.NewView(0, 4, []topology.NodeID{1}, nil, knowledge.Params{Intervals: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.MergeSnapshot(f.Heartbeat); err != nil {
		t.Fatal(err)
	}
	if _, d := other.CrashEstimate(1); d != 1 {
		t.Errorf("merged distortion = %d, want 1", d)
	}
}

func TestDataRoundTrip(t *testing.T) {
	msg := &DataMsg{
		Origin:      2,
		Seq:         7,
		Root:        2,
		Parents:     []topology.NodeID{2, 0, topology.None},
		AllocByNode: []int32{3, 1, 0},
		Body:        []byte("payload"),
	}
	b, err := Encode(&Frame{Kind: FrameData, Data: msg})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Data
	if got.Origin != 2 || got.Seq != 7 || got.Root != 2 || string(got.Body) != "payload" {
		t.Errorf("data lost: %+v", got)
	}
	if len(got.Parents) != 3 || got.Parents[2] != topology.None {
		t.Errorf("parents lost: %v", got.Parents)
	}
	if len(got.AllocByNode) != 3 || got.AllocByNode[0] != 3 {
		t.Errorf("alloc lost: %v", got.AllocByNode)
	}
}

func TestFloodedDataHasNoTree(t *testing.T) {
	msg := &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x")}
	b, err := Encode(&Frame{Kind: FrameData, Data: msg})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data.Parents) != 0 {
		t.Errorf("flooded message grew a tree: %v", f.Data.Parents)
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name  string
		frame *Frame
	}{
		{"nil", nil},
		{"unknown kind", &Frame{Kind: 99}},
		{"heartbeat without payload", &Frame{Kind: FrameHeartbeat}},
		{"heartbeat with data", &Frame{Kind: FrameHeartbeat, Heartbeat: &knowledge.Snapshot{}, Data: &DataMsg{}}},
		{"data without payload", &Frame{Kind: FrameData}},
		{"data with heartbeat", &Frame{Kind: FrameData, Data: &DataMsg{}, Heartbeat: &knowledge.Snapshot{}}},
		{"alloc mismatch", &Frame{Kind: FrameData, Data: &DataMsg{
			Parents:     []topology.NodeID{topology.None, 0},
			AllocByNode: []int32{0},
		}}},
		{"frame-level epoch on a data frame", &Frame{Kind: FrameData, Epoch: 2,
			Data: &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x")}}},
	}
	for _, c := range cases {
		if _, err := Encode(c.frame); err == nil {
			t.Errorf("%s: Encode should fail", c.name)
		}
	}
	if _, err := Decode([]byte("not a frame")); err == nil {
		t.Error("garbage should fail to decode")
	}
	if _, err := Encode(&Frame{Kind: FrameData, Data: &DataMsg{Origin: 1}}); err == nil {
		t.Error("data frame with reserved sequence 0 should fail to encode")
	}
}

// TestDecodeRejectsTrailingBytes pins the framing invariant that a frame
// consumes its buffer exactly (length-prefixed transports deliver exact
// frames; trailing garbage means corruption).
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b, err := Encode(&Frame{Kind: FrameData, Data: &DataMsg{Origin: 0, Seq: 1, Root: 0, Body: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(b, 0x00)); err == nil {
		t.Error("trailing byte should fail to decode")
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := Decode(b[:cut]); err == nil {
			t.Errorf("truncation at %d should fail to decode", cut)
		}
	}
}

// TestRefinedGridRoundTrip covers the slow path: estimators whose grid
// was re-gridded by AutoRefine carry explicit (non-uniform) midpoints.
func TestRefinedGridRoundTrip(t *testing.T) {
	v, err := knowledge.NewView(0, 3, []topology.NodeID{1}, nil, knowledge.Params{
		Intervals: 10, AutoRefine: true, RefineMinObs: 4, RefineMass: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Enough one-sided periods for the self-estimate to concentrate and
	// refine (candidacy is checked every 16 periods), but short of the
	// next check, where sustained successes would hit the edge-stuck
	// fallback and re-grid back to uniform.
	for i := 0; i < 20; i++ {
		v.BeginPeriod()
	}
	snap := v.Snapshot()
	refined := false
	for _, pr := range snap.Procs {
		if !pr.Est.HasUniformMids() {
			refined = true
		}
	}
	if !refined {
		t.Fatal("fixture never produced a refined (non-uniform) grid")
	}
	b, err := Encode(&Frame{Kind: FrameHeartbeat, Heartbeat: snap})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !framesMatch(&Frame{Kind: FrameHeartbeat, Heartbeat: snap}, f, quantTol) {
		t.Fatal("refined snapshot did not round-trip")
	}
	for i, pr := range snap.Procs {
		if pr.Est.HasUniformMids() != f.Heartbeat.Procs[i].Est.HasUniformMids() {
			t.Errorf("proc %d: grid kind changed across the wire", pr.ID)
		}
	}
}

// TestDeltaValidate pins the well-formedness rules of the knowledge-delta
// frame kind in both codec directions.
func TestDeltaValidate(t *testing.T) {
	snap := &knowledge.Snapshot{From: 1, Seq: 3}
	good := &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Since: 2, Ver: 5, Ack: 7}}
	b, err := Encode(good)
	if err != nil {
		t.Fatalf("well-formed delta rejected: %v", err)
	}
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Delta.Since != 2 || f.Delta.Ver != 5 || f.Delta.Ack != 7 {
		t.Fatalf("delta bookkeeping drifted: %+v", f.Delta)
	}

	bad := []*Frame{
		{Kind: FrameKnowledgeDelta},                                                       // no payload
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{}},                             // nil record set
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Since: 6, Ver: 5}}, // base ahead of version
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap}, Heartbeat: snap},  // payload mismatch
		{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Ver: 2,
			Cadence: MaxCadence + 1}}, // cadence beyond the suspicion-scaling bound
	}
	for i, f := range bad {
		if _, err := Encode(f); err == nil {
			t.Errorf("malformed delta %d accepted", i)
		}
	}
}

// TestCadenceRoundTrip pins the adaptive-cadence field: a stretched
// delta round-trips its cadence, and an unset or classic cadence (0 or
// 1) both decode as one frame per period.
func TestCadenceRoundTrip(t *testing.T) {
	snap := &knowledge.Snapshot{From: 1, Seq: 3}
	for _, c := range []struct{ sent, want uint64 }{{0, 1}, {1, 1}, {8, 8}, {MaxCadence, MaxCadence}} {
		b, err := Encode(&Frame{Kind: FrameKnowledgeDelta,
			Delta: &KnowledgeDelta{Snap: snap, Since: 2, Ver: 5, Ack: 7, Cadence: c.sent}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		d := got.Delta
		if d.Cadence != c.want || d.Since != 2 || d.Ver != 5 || d.Ack != 7 {
			t.Errorf("cadence %d: decoded %+v, want cadence %d", c.sent, d, c.want)
		}
	}
}

// TestDecodeRejectsOtherVersions pins the one wire format: every frame
// encodes at version 5, and a header naming any other version — the
// retired versions 1–4 included — is rejected as unsupported before its
// payload is read.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	for i, f := range seedFrames(t) {
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if b[1] != 5 {
			t.Fatalf("seed %d (kind %d) encoded at version %d, want 5", i, f.Kind, b[1])
		}
		for v := 0; v < 256; v++ {
			if v == 5 {
				continue
			}
			forged := append([]byte(nil), b...)
			forged[1] = byte(v)
			_, err := Decode(forged)
			if err == nil || !strings.Contains(err.Error(), "unsupported version") {
				t.Fatalf("seed %d at version %d: got %v, want an unsupported-version error", i, v, err)
			}
		}
	}
}

// TestDataPiggybackRoundTrip: a data frame's piggybacked snapshot rides
// the quantized layouts — the frame is smaller than the raw layout of the
// same snapshot — decodes to within one quantization step, and
// re-encodes byte-identically after decode, so relays that re-encode a
// received piggyback add no further error.
func TestDataPiggybackRoundTrip(t *testing.T) {
	snap := paperSnapshot(t)
	f := &Frame{Kind: FrameData, Data: &DataMsg{
		Origin: 1, Seq: 4, Root: 1, Body: []byte("piggy"), Piggyback: snap, Epoch: 2,
	}}
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if raw := rawLayoutLen(len(b), snap); len(b)*2 > raw {
		t.Errorf("piggybacked data frame is %dB, raw layout %dB — piggyback not quantized", len(b), raw)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !framesMatch(f, got, quantTol) {
		t.Fatal("piggybacked data frame drifted beyond one quantization step")
	}
	again, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, again) {
		t.Fatal("decoded piggybacked data frame did not re-encode byte-identically")
	}
}
