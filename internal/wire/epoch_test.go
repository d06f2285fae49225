package wire

import (
	"bytes"
	"testing"

	"adaptivecast/internal/topology"
)

// TestMembershipValidation rejects malformed join/leave payloads.
func TestMembershipValidation(t *testing.T) {
	bad := []*Frame{
		{Kind: FrameJoin},
		{Kind: FrameJoin, Member: &Membership{Node: 0, Epoch: 0, NumProcs: 1}},
		{Kind: FrameJoin, Member: &Membership{Node: 3, Epoch: 1, NumProcs: 3}},
		{Kind: FrameJoin, Member: &Membership{Node: 2, Epoch: 1, NumProcs: 3, Departed: []topology.NodeID{7}}},
		{Kind: FrameJoin, Member: &Membership{Node: 2, Epoch: 1, NumProcs: 3, Neighbors: []topology.NodeID{2}}},
		{Kind: FrameJoin, Member: &Membership{Node: 2, Epoch: 1, NumProcs: 3, Departed: []topology.NodeID{2}}},
		{Kind: FrameLeave, Member: &Membership{Node: 1, Epoch: 1, NumProcs: 3, Neighbors: []topology.NodeID{0}}},
	}
	for i, f := range bad {
		if _, err := Encode(f); err == nil {
			t.Errorf("bad membership frame %d encoded without error", i)
		}
	}
}

// TestDecodeBorrowAliasesBody pins the zero-copy contract: DecodeBorrow's
// body aliases the input buffer (no allocation), Decode's does not.
func TestDecodeBorrowAliasesBody(t *testing.T) {
	f := &Frame{Kind: FrameData, Data: &DataMsg{Origin: 1, Seq: 2, Root: 1, Body: []byte("zero-copy body"), Epoch: 3}}
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}

	borrowed, err := DecodeBorrow(b)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(f, borrowed) {
		t.Fatal("borrow decode drifted")
	}
	copied, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}

	// Mutating the input buffer must show through the borrowed body and
	// not through the copied one.
	for i := range b {
		b[i] ^= 0xFF
	}
	if bytes.Equal(borrowed.Data.Body, f.Data.Body) {
		t.Error("DecodeBorrow body did not alias the input buffer")
	}
	if !bytes.Equal(copied.Data.Body, f.Data.Body) {
		t.Error("Decode body aliased the input buffer")
	}
}
