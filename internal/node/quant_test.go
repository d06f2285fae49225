package node

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
	"adaptivecast/internal/wire"
)

// tapTransport wraps a fabric endpoint and records every outbound frame
// per destination, so tests can audit what a node actually sends toward
// each peer.
type tapTransport struct {
	transport.Transport
	mu   sync.Mutex
	sent map[topology.NodeID][][]byte
}

func newTap(tr transport.Transport) *tapTransport {
	return &tapTransport{Transport: tr, sent: make(map[topology.NodeID][][]byte)}
}

func (tp *tapTransport) Send(to topology.NodeID, frame []byte) error {
	tp.mu.Lock()
	tp.sent[to] = append(tp.sent[to], append([]byte(nil), frame...))
	tp.mu.Unlock()
	return tp.Transport.Send(to, frame)
}

func (tp *tapTransport) count(to topology.NodeID) int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return len(tp.sent[to])
}

func (tp *tapTransport) frames(to topology.NodeID) [][]byte {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := make([][]byte, len(tp.sent[to]))
	copy(out, tp.sent[to])
	return out
}

// TestQuantizedFullHeartbeats: full-snapshot heartbeats (Since = 0
// delta frames, forced every period by the ack-clearing reference) ship
// their estimates in the quantized layouts — under 4 bytes per belief on
// the wire, where the raw float64 layouts spend 8.
func TestQuantizedFullHeartbeats(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()

	taps := make([]*tapTransport, 2)
	nodes := make([]*Node, 2)
	for i := range nodes {
		taps[i] = newTap(fabric.Endpoint(topology.NodeID(i)))
		nd, err := New(Config{
			ID:        topology.NodeID(i),
			NumProcs:  2,
			Neighbors: g.Neighbors(topology.NodeID(i)),
		}, taps[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	settleFullTicks(nodes, 50)
	for i, nd := range nodes {
		s := nd.Stats()
		if s.DecodeErrors != 0 || s.SnapshotMergeErrors != 0 {
			t.Errorf("node %d hit %d decode and %d merge errors", i, s.DecodeErrors, s.SnapshotMergeErrors)
		}
		if s.HeartbeatsReceived == 0 {
			t.Errorf("node %d received no heartbeats", i)
		}
		full := 0
		for fi, b := range taps[i].frames(topology.NodeID(1 - i)) {
			f, err := wire.Decode(b)
			if err != nil {
				t.Fatalf("node %d frame %d: %v", i, fi, err)
			}
			if f.Kind != wire.FrameKnowledgeDelta {
				t.Fatalf("node %d frame %d: kind %d, want a knowledge delta", i, fi, f.Kind)
			}
			if f.Delta.Since != 0 {
				continue // an ack raced the reference's clear; not a full snapshot
			}
			full++
			beliefs := 0
			for _, pr := range f.Delta.Snap.Procs {
				beliefs += len(pr.Est.LogBeliefs)
			}
			for _, lr := range f.Delta.Snap.Links {
				beliefs += len(lr.Est.LogBeliefs)
			}
			if beliefs == 0 {
				t.Fatalf("node %d frame %d: full snapshot carries no beliefs", i, fi)
			}
			if len(b) >= 4*beliefs {
				t.Errorf("node %d frame %d: %dB for %d beliefs — estimates not quantized", i, fi, len(b), beliefs)
			}
		}
		if full < 40 {
			t.Errorf("node %d sent %d full-snapshot heartbeats over 50 periods, want >= 40", i, full)
		}
	}
}

// TestQuantizedEstimateParity is the system-level half of the
// quantization error bound: on seeded schedules, a cluster whose beliefs
// cross every link quantized must still converge to the true crash and
// loss rates, within the tolerances the adaptive-cadence parity test
// uses — the <= 1e-3 per-hop quantization error must stay invisible at
// the estimate level. No process ever crashes. The crash rate is checked
// on lossless links: under loss, Event 2 books every heartbeat timeout
// as crash evidence against the silent neighbor, so there the crash
// estimate tracks suspicions, not the true rate.
func TestQuantizedEstimateParity(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		run := func(loss float64, periods int) (*topology.Graph, []*Node) {
			rng := rand.New(rand.NewSource(seed))
			g, err := topology.RandomConnected(6, 2, rng)
			if err != nil {
				t.Fatal(err)
			}
			fabric := transport.NewFabric(transport.FabricOptions{Seed: seed})
			t.Cleanup(func() { _ = fabric.Close() })
			nodes := buildCluster(t, g, fabric, nil)
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(li)
				if err := fabric.SetLoss(l.A, l.B, loss); err != nil {
					t.Fatal(err)
				}
			}
			settleTicks(nodes, periods)
			for i, nd := range nodes {
				if errs := nd.Stats().DecodeErrors; errs != 0 {
					t.Errorf("seed %d: node %d hit %d decode errors", seed, i, errs)
				}
			}
			return g, nodes
		}

		g, nodes := run(0, 200)
		for i, nd := range nodes {
			for p := 0; p < g.NumNodes(); p++ {
				m, d := nd.CrashEstimate(topology.NodeID(p))
				if d == math.MaxInt32 {
					t.Fatalf("seed %d: node %d never learned of process %d", seed, i, p)
				}
				if m > 0.05 {
					t.Errorf("seed %d: node %d crash estimate of %d is %v, want within 0.05 of 0", seed, i, p, m)
				}
			}
		}

		const trueLoss = 0.25
		g, nodes = run(trueLoss, 500)
		for i, nd := range nodes {
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(li)
				m, _, ok := nd.LossEstimate(l)
				if !ok {
					t.Fatalf("seed %d: node %d never learned of link %v", seed, i, l)
				}
				if math.Abs(m-trueLoss) > 0.08 {
					t.Errorf("seed %d: node %d loss estimate of %v is %v, want within 0.08 of %v",
						seed, i, l, m, trueLoss)
				}
			}
		}
	}
}

// TestSuspicionScopedToSuspectLink is the cadence-satellite regression
// test: when one neighbor dies, the suspecting node pins ONLY the
// suspect's link at the δ cadence — the healthy link re-stretches once
// the suspicion news is acked, instead of the whole node snapping back
// for as long as the suspicion lasts.
func TestSuspicionScopedToSuspectLink(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()

	var tap *tapTransport
	nodes := make([]*Node, 3)
	for i := 0; i < 3; i++ {
		tr := fabric.Endpoint(topology.NodeID(i))
		if i == 1 {
			tap = newTap(tr)
			tr = tap
		}
		nd, err := New(Config{
			ID:                 topology.NodeID(i),
			NumProcs:           3,
			Neighbors:          g.Neighbors(topology.NodeID(i)),
			AdaptiveCadenceMax: 4,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	settleTicks(nodes, 400)

	// tick01 paces the two survivors one period and lets the async send
	// path (lane scheduler, fabric goroutines) drain, like settleTicks.
	tick01 := func() {
		nodes[0].Tick()
		nodes[1].Tick()
		time.Sleep(2 * time.Millisecond)
	}

	// Crash node 2 and tick until node 1 suspects it.
	nodes[2].Stop()
	suspected := func() bool {
		tick01()
		nodes[1].viewMu.Lock()
		defer nodes[1].viewMu.Unlock()
		return nodes[1].view.Suspected(2)
	}
	fired := false
	for p := 0; p < 64 && !fired; p++ {
		fired = suspected()
	}
	if !fired {
		t.Fatal("node 1 never suspected the crashed neighbor")
	}

	// Let the suspicion news get acked and the healthy link re-stretch,
	// then measure a steady window.
	for p := 0; p < 16; p++ {
		tick01()
	}
	healthyBefore, suspectBefore := tap.count(0), tap.count(2)
	const window = 48
	for p := 0; p < window; p++ {
		tick01()
	}
	time.Sleep(20 * time.Millisecond)
	toHealthy := tap.count(0) - healthyBefore
	toSuspect := tap.count(2) - suspectBefore

	// The suspect's link stays pinned at δ: one frame every period.
	if toSuspect < window-6 {
		t.Errorf("suspect link got %d frames over %d periods, want ~%d (δ cadence)", toSuspect, window, window)
	}
	// The healthy link must NOT be pinned: periodic Event-2 suspicion
	// news snaps it back briefly, but it re-stretches in between. The
	// old AnySuspected behavior sent exactly one frame per period here.
	if toHealthy > toSuspect-8 {
		t.Errorf("healthy link got %d frames vs %d to the suspect over %d periods — suspicion still pins the whole node",
			toHealthy, toSuspect, window)
	}
}
