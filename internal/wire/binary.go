package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// Binary framing (see the README "Wire format" section):
//
//	[0] magic 0xAC
//	[1] version (5; every other version is rejected)
//	[2] kind (FrameHeartbeat | FrameData | FrameKnowledgeDelta | FrameJoin | FrameLeave)
//	payload…
//
// There is one wire format. Heartbeat, delta and data frames carry the
// sender's membership epoch: a full heartbeat as a uvarint before its
// snapshot, a delta after its {Since, Ver, Ack, Cadence} header, a data
// frame after its piggyback section. Join and leave frames carry a
// Membership payload.
//
// Integers are varints (unsigned for sequence numbers, lengths and
// counts; zigzag for node IDs, distortions and allocations, which can be
// negative sentinels), floats are 8-byte little-endian IEEE 754, byte
// strings are length-prefixed. Estimator states ship quantized: log
// beliefs (and refined midpoints) as uint16 fixed-point codes over a
// shared scale instead of float64s (see internal/bayes/quant.go for the
// scheme and its ≤1e-3 error budget). A state on the standard uniform
// grid — every estimator that was never refined — ships only its
// interval count (flagQUniform); a refined grid ships its exact first
// and last midpoints and uint16 interior codes (flagQWindow). Degenerate
// states — too few intervals, mismatched lengths, a collapsed refined
// window — fall back to the raw float64 layouts (flagUniform,
// flagRefined), which decoders always accept.

const (
	magic       = 0xAC
	version     = 5
	headerSize  = 3
	flagUniform = 1 << 0 // raw estimator state: midpoints are the uniform grid
	flagRefined = 0      // raw estimator state: midpoints explicit

	// Quantized estimator layouts. flagQUniform is flagUniform's
	// quantized twin (uniform grid, count only); flagQWindow carries a
	// refined grid with exact first/last midpoints and uint16 interior
	// codes.
	flagQUniform = 2
	flagQWindow  = 3
)

// appendUvarint, appendVarint etc. build on the stdlib append helpers; a
// thin reader with a sticky error handles the inbound direction so the
// decoder reads straight-line without per-field error plumbing.

type reader struct {
	b      []byte
	off    int
	borrow bool // byte fields alias b instead of copying (DecodeBorrow)
	err    error
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated frame")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads an element count and bounds it by the bytes still in the
// frame (every element takes at least one byte), so a hostile length
// prefix cannot drive a giant allocation.
func (r *reader) count(what string) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()) {
		r.fail("%s count %d exceeds frame", what, v)
		return 0
	}
	return int(v)
}

func (r *reader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("truncated float")
		return 0
	}
	bits := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(bits)
}

// floats reads n 8-byte floats, bounds-checked up front.
func (r *reader) floats(n int, what string) []float64 {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < 8*n {
		r.fail("%s: %d floats exceed frame", what, n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}

func (r *reader) uint16v() uint16 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 2 {
		r.fail("truncated fixed-point code")
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) bytes(what string) []byte {
	n := r.count(what)
	if r.err != nil || n == 0 {
		return nil
	}
	if r.borrow {
		out := r.b[r.off : r.off+n : r.off+n]
		r.off += n
		return out
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+n])
	r.off += n
	return out
}

// nodeID decodes a zigzag-encoded topology.NodeID (which may legitimately
// be the None sentinel inside parent vectors).
func (r *reader) nodeID() topology.NodeID { return topology.NodeID(r.varint()) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendFloats(b []byte, fs []float64) []byte {
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// ---------------------------------------------------------------------------
// Estimator state
// ---------------------------------------------------------------------------

// appendEstimatorRaw writes an estimator state in the raw float64
// layouts, the fallback appendEstimator takes for degenerate states.
func appendEstimatorRaw(b []byte, s *bayes.State) []byte {
	if s.HasUniformMids() {
		b = append(b, flagUniform)
		b = binary.AppendUvarint(b, uint64(len(s.Mids)))
	} else {
		b = append(b, flagRefined)
		b = binary.AppendUvarint(b, uint64(len(s.Mids)))
		b = appendFloats(b, s.Mids)
	}
	b = binary.AppendUvarint(b, uint64(len(s.LogBeliefs)))
	b = appendFloats(b, s.LogBeliefs)
	return b
}

func (r *reader) estimator() bayes.State {
	var s bayes.State
	flags := r.byte()
	switch flags {
	case flagUniform:
		// Uniform grids ship only the interval count; each belief below is
		// 8 bytes, so cap the count by the remaining frame the same way
		// explicit float arrays are capped.
		u := r.uvarint()
		if r.err != nil {
			return s
		}
		if u > uint64(r.remaining()/8+1) {
			r.fail("uniform grid count %d exceeds frame", u)
			return s
		}
		s.Mids = bayes.UniformGridMids(int(u))
	case flagRefined:
		n := r.count("midpoints")
		s.Mids = r.floats(n, "midpoints")
	case flagQUniform:
		// One count serves both mids and beliefs; each belief below takes
		// 2 bytes.
		u := r.uvarint()
		if r.err != nil {
			return s
		}
		if u > uint64(r.remaining()/2+1) {
			r.fail("quantized grid count %d exceeds frame", u)
			return s
		}
		s.Mids = bayes.UniformGridMids(int(u))
		s.LogBeliefs = r.qbeliefs(int(u))
		return s
	case flagQWindow:
		u := r.uvarint()
		if r.err != nil {
			return s
		}
		if u < 2 || u > uint64(r.remaining()/2+1) {
			r.fail("quantized window count %d invalid", u)
			return s
		}
		first, last := r.float(), r.float()
		if r.err != nil {
			return s
		}
		// Clamp the support window at decode so a hostile frame cannot
		// smuggle out-of-(0,1) midpoints through the dequantizer.
		if !(first > 0 && first < 1) || !(last > first && last < 1) {
			r.fail("quantized window [%v,%v] outside (0,1)", first, last)
			return s
		}
		mids := make([]float64, u)
		mids[0], mids[u-1] = first, last
		for i := 1; i < int(u)-1 && r.err == nil; i++ {
			mids[i] = bayes.DequantizeMid(r.uint16v(), first, last)
		}
		if r.err != nil {
			return s
		}
		s.Mids = mids
		s.LogBeliefs = r.qbeliefs(int(u))
		return s
	default:
		r.fail("unknown estimator flags %#x", flags)
		return s
	}
	n := r.count("beliefs")
	s.LogBeliefs = r.floats(n, "beliefs")
	return s
}

// qbeliefs reads a quantized log-belief block: a shared float64 scale
// followed by n uint16 codes. The scale is clamped into
// [bayes.BeliefFloor, 0] and the block re-normalized to a 0 maximum, so
// a quantized merge can never produce out-of-support estimates no matter
// what a hostile frame ships.
func (r *reader) qbeliefs(n int) []float64 {
	scale := r.float()
	if r.err != nil {
		return nil
	}
	if math.IsNaN(scale) || scale > 0 {
		r.fail("quantized belief scale %v invalid", scale)
		return nil
	}
	if scale < bayes.BeliefFloor {
		scale = bayes.BeliefFloor
	}
	if r.remaining() < 2*n {
		r.fail("beliefs: %d fixed-point codes exceed frame", n)
		return nil
	}
	bq := bayes.NewBeliefQuant(scale)
	codes := r.b[r.off : r.off+2*n]
	r.off += 2 * n
	out := make([]float64, n)
	maxLb := math.Inf(-1)
	for i := range out {
		out[i] = bq.Belief(binary.LittleEndian.Uint16(codes[2*i:]))
		if out[i] > maxLb {
			maxLb = out[i]
		}
	}
	// Honest blocks always contain a code-0 belief (the estimator rebases
	// its maximum to 0 before encoding), making this a no-op; rebase here
	// anyway so decoded beliefs always satisfy the ≤0 support invariant
	// with a representable maximum.
	if n > 0 && maxLb < 0 {
		for i := range out {
			out[i] -= maxLb
		}
	}
	return out
}

// appendEstimator writes an estimator state in the quantized layouts:
// beliefs (and refined midpoints) ship as uint16 fixed-point codes over
// a shared scale. Degenerate states — too few intervals, mismatched
// lengths, a collapsed refined window — fall back to the raw layouts.
func appendEstimator(b []byte, s *bayes.State) []byte {
	u := len(s.Mids)
	if u < 2 || len(s.LogBeliefs) != u {
		return appendEstimatorRaw(b, s)
	}
	if s.HasUniformMids() {
		b = append(b, flagQUniform)
		b = binary.AppendUvarint(b, uint64(u))
	} else {
		first, last := s.Mids[0], s.Mids[u-1]
		if !(first > 0 && first < 1) || !(last > first && last < 1) {
			return appendEstimatorRaw(b, s)
		}
		b = append(b, flagQWindow)
		b = binary.AppendUvarint(b, uint64(u))
		b = appendFloat(b, first)
		b = appendFloat(b, last)
		for _, m := range s.Mids[1 : u-1] {
			b = binary.LittleEndian.AppendUint16(b, bayes.QuantizeMid(m, first, last))
		}
	}
	scale := bayes.BeliefQuantScale(s.LogBeliefs)
	bq := bayes.NewBeliefQuant(scale)
	b = appendFloat(b, scale)
	for _, lb := range s.LogBeliefs {
		b = binary.LittleEndian.AppendUint16(b, bq.Code(lb))
	}
	return b
}

// ---------------------------------------------------------------------------
// Knowledge snapshots
// ---------------------------------------------------------------------------

// estimatorSize is a pre-allocation estimate for one serialized
// estimator. It deliberately over-estimates — raw 8-byte beliefs and
// midpoints, even though the quantized layouts ship 2-byte codes and
// the uniform grid omits midpoints — so sizing never pays the layout
// decision (appendEstimator makes it exactly once).
func estimatorSize(s *bayes.State) int {
	return 1 + 2*binary.MaxVarintLen32 + 8*len(s.LogBeliefs) + 8*len(s.Mids)
}

func snapshotSize(s *knowledge.Snapshot) int {
	n := 4 * binary.MaxVarintLen64
	for i := range s.Procs {
		n += 2*binary.MaxVarintLen64 + estimatorSize(&s.Procs[i].Est)
	}
	for i := range s.Links {
		n += 3*binary.MaxVarintLen64 + estimatorSize(&s.Links[i].Est)
	}
	return n
}

// appendSnapshot writes a snapshot's record section.
func appendSnapshot(b []byte, s *knowledge.Snapshot) []byte {
	b = binary.AppendVarint(b, int64(s.From))
	b = binary.AppendUvarint(b, s.Seq)
	b = binary.AppendUvarint(b, uint64(len(s.Procs)))
	for i := range s.Procs {
		pr := &s.Procs[i]
		b = binary.AppendVarint(b, int64(pr.ID))
		b = binary.AppendVarint(b, int64(pr.Dist))
		b = appendEstimator(b, &pr.Est)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Links)))
	for i := range s.Links {
		lr := &s.Links[i]
		b = binary.AppendVarint(b, int64(lr.Link.A))
		b = binary.AppendVarint(b, int64(lr.Link.B))
		b = binary.AppendVarint(b, int64(lr.Dist))
		b = appendEstimator(b, &lr.Est)
	}
	return b
}

func (r *reader) snapshot() *knowledge.Snapshot {
	s := &knowledge.Snapshot{
		From: r.nodeID(),
		Seq:  r.uvarint(),
	}
	nProcs := r.count("proc records")
	if r.err != nil {
		return nil
	}
	if nProcs > 0 {
		s.Procs = make([]knowledge.ProcRecord, 0, nProcs)
	}
	for i := 0; i < nProcs && r.err == nil; i++ {
		s.Procs = append(s.Procs, knowledge.ProcRecord{
			ID:   r.nodeID(),
			Dist: int(r.varint()),
			Est:  r.estimator(),
		})
	}
	nLinks := r.count("link records")
	if r.err != nil {
		return nil
	}
	if nLinks > 0 {
		s.Links = make([]knowledge.LinkRecord, 0, nLinks)
	}
	for i := 0; i < nLinks && r.err == nil; i++ {
		s.Links = append(s.Links, knowledge.LinkRecord{
			Link: topology.Link{A: r.nodeID(), B: r.nodeID()},
			Dist: int(r.varint()),
			Est:  r.estimator(),
		})
	}
	if r.err != nil {
		return nil
	}
	return s
}

// ---------------------------------------------------------------------------
// Knowledge deltas
// ---------------------------------------------------------------------------

func deltaSize(d *KnowledgeDelta) int {
	return 5*binary.MaxVarintLen64 + snapshotSize(d.Snap)
}

// appendDelta lays out the version bookkeeping before the record set, so
// the fixed-cost liveness header of a near-empty steady-state delta stays
// a handful of bytes.
func appendDelta(b []byte, d *KnowledgeDelta) []byte {
	return appendSnapshot(appendDeltaHeader(b, d), d.Snap)
}

// appendDeltaHeader writes the delta's version bookkeeping without its
// record section, so the shared-cut fast path (AppendDeltaFrame) can
// splice a snapshot section that was encoded once for a whole group of
// neighbors.
func appendDeltaHeader(b []byte, d *KnowledgeDelta) []byte {
	b = binary.AppendUvarint(b, d.Since)
	b = binary.AppendUvarint(b, d.Ver)
	b = binary.AppendUvarint(b, d.Ack)
	b = binary.AppendUvarint(b, d.Cadence)
	return binary.AppendUvarint(b, d.Epoch)
}

func (r *reader) delta() *KnowledgeDelta {
	d := &KnowledgeDelta{
		Since:   r.uvarint(),
		Ver:     r.uvarint(),
		Ack:     r.uvarint(),
		Cadence: r.uvarint(),
		Epoch:   r.uvarint(),
	}
	if d.Cadence == 0 {
		d.Cadence = 1 // 0 and 1 both mean the classic one frame per δ
	}
	d.Snap = r.snapshot()
	if r.err != nil {
		return nil
	}
	return d
}

// ---------------------------------------------------------------------------
// Data messages
// ---------------------------------------------------------------------------

func dataSize(m *DataMsg) int {
	n := 8*binary.MaxVarintLen64 + len(m.Parents)*binary.MaxVarintLen32 +
		len(m.AllocByNode)*binary.MaxVarintLen32 + len(m.Body) + 1
	if m.Piggyback != nil {
		n += snapshotSize(m.Piggyback)
	}
	return n
}

func appendData(b []byte, m *DataMsg) []byte {
	b = binary.AppendVarint(b, int64(m.Origin))
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendVarint(b, int64(m.Root))
	b = binary.AppendUvarint(b, uint64(len(m.Parents)))
	for _, p := range m.Parents {
		b = binary.AppendVarint(b, int64(p))
	}
	b = binary.AppendUvarint(b, uint64(len(m.AllocByNode)))
	for _, a := range m.AllocByNode {
		b = binary.AppendVarint(b, int64(a))
	}
	b = binary.AppendUvarint(b, uint64(len(m.Body)))
	b = append(b, m.Body...)
	if m.Piggyback != nil {
		b = append(b, 1)
		b = appendSnapshot(b, m.Piggyback)
	} else {
		b = append(b, 0)
	}
	return binary.AppendUvarint(b, m.Epoch)
}

func (r *reader) data() *DataMsg {
	m := &DataMsg{
		Origin: r.nodeID(),
		Seq:    r.uvarint(),
		Root:   r.nodeID(),
	}
	nParents := r.count("parents")
	if nParents > 0 {
		m.Parents = make([]topology.NodeID, 0, nParents)
	}
	for i := 0; i < nParents && r.err == nil; i++ {
		m.Parents = append(m.Parents, r.nodeID())
	}
	nAlloc := r.count("allocations")
	if nAlloc > 0 {
		m.AllocByNode = make([]int32, 0, nAlloc)
	}
	for i := 0; i < nAlloc && r.err == nil; i++ {
		v := r.varint()
		if v < math.MinInt32 || v > math.MaxInt32 {
			r.fail("allocation %d overflows int32", v)
			return nil
		}
		m.AllocByNode = append(m.AllocByNode, int32(v))
	}
	m.Body = r.bytes("body")
	switch r.byte() {
	case 0:
	case 1:
		m.Piggyback = r.snapshot()
	default:
		r.fail("bad piggyback flag")
	}
	m.Epoch = r.uvarint()
	if r.err != nil {
		return nil
	}
	return m
}

// ---------------------------------------------------------------------------
// Membership announcements (join / leave)
// ---------------------------------------------------------------------------

func membershipSize(m *Membership) int {
	return (5 + len(m.Departed) + len(m.Neighbors)) * binary.MaxVarintLen64
}

func appendMembership(b []byte, m *Membership) []byte {
	b = binary.AppendVarint(b, int64(m.Node))
	b = binary.AppendUvarint(b, m.Epoch)
	b = binary.AppendUvarint(b, uint64(m.NumProcs))
	b = binary.AppendUvarint(b, uint64(len(m.Departed)))
	for _, d := range m.Departed {
		b = binary.AppendVarint(b, int64(d))
	}
	b = binary.AppendUvarint(b, uint64(len(m.Neighbors)))
	for _, nb := range m.Neighbors {
		b = binary.AppendVarint(b, int64(nb))
	}
	return b
}

func (r *reader) membership() *Membership {
	m := &Membership{
		Node:  r.nodeID(),
		Epoch: r.uvarint(),
	}
	np := r.uvarint()
	if np > uint64(math.MaxInt32) {
		r.fail("membership process count %d too large", np)
		return nil
	}
	m.NumProcs = int(np)
	nDep := r.count("departed processes")
	if nDep > 0 {
		m.Departed = make([]topology.NodeID, 0, nDep)
	}
	for i := 0; i < nDep && r.err == nil; i++ {
		m.Departed = append(m.Departed, r.nodeID())
	}
	nNbs := r.count("joiner links")
	if nNbs > 0 {
		m.Neighbors = make([]topology.NodeID, 0, nNbs)
	}
	for i := 0; i < nNbs && r.err == nil; i++ {
		m.Neighbors = append(m.Neighbors, r.nodeID())
	}
	if r.err != nil {
		return nil
	}
	return m
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

// frameSize over-estimates the encoded size of a validated frame, for
// pre-sizing fresh buffers.
func frameSize(f *Frame) int {
	size := headerSize
	switch f.Kind {
	case FrameHeartbeat:
		size += snapshotSize(f.Heartbeat) + binary.MaxVarintLen64
	case FrameData:
		size += dataSize(f.Data) + binary.MaxVarintLen64
	case FrameKnowledgeDelta:
		size += deltaSize(f.Delta)
	case FrameJoin, FrameLeave:
		size += membershipSize(f.Member)
	}
	return size
}

// appendFrameBytes appends the full encoding (header + payload) of a
// validated frame to b. It allocates nothing beyond growing b.
func appendFrameBytes(b []byte, f *Frame) []byte {
	b = append(b, magic, version, byte(f.Kind))
	switch f.Kind {
	case FrameHeartbeat:
		b = binary.AppendUvarint(b, f.Epoch)
		b = appendSnapshot(b, f.Heartbeat)
	case FrameData:
		b = appendData(b, f.Data)
	case FrameKnowledgeDelta:
		b = appendDelta(b, f.Delta)
	case FrameJoin, FrameLeave:
		b = appendMembership(b, f.Member)
	}
	return b
}

func encodeBinary(f *Frame) ([]byte, error) {
	return appendFrameBytes(make([]byte, 0, frameSize(f)), f), nil
}

func decodeBinary(b []byte, borrow bool) (*Frame, error) {
	if len(b) < headerSize {
		return nil, errors.New("wire: frame shorter than header")
	}
	if b[0] != magic {
		return nil, fmt.Errorf("wire: bad magic %#x", b[0])
	}
	if b[1] != version {
		return nil, fmt.Errorf("wire: unsupported version %d", b[1])
	}
	f := &Frame{Kind: FrameKind(b[2])}
	r := &reader{b: b, off: headerSize, borrow: borrow}
	switch f.Kind {
	case FrameHeartbeat:
		f.Epoch = r.uvarint()
		f.Heartbeat = r.snapshot()
	case FrameData:
		f.Data = r.data()
	case FrameKnowledgeDelta:
		f.Delta = r.delta()
	case FrameJoin, FrameLeave:
		f.Member = r.membership()
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", f.Kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(b)-r.off)
	}
	return f, nil
}
