package node

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// poolEncodes returns how many frame encodes a node has performed
// through its pooled datapath (hit or miss — the sum counts encodes, so
// it is immune to sync.Pool eviction).
func poolEncodes(nd *Node) int {
	s := nd.Stats()
	return s.EncodePoolHits + s.EncodePoolMisses
}

// TestBroadcastEncodesOnce pins the encode-once fix: one Broadcast
// encodes exactly one frame regardless of fan-out, on both the flood
// fallback (unconverged) and the planned-tree path. forward() and
// flood() used to each re-encode per call site.
func TestBroadcastEncodesOnce(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	// Unconverged: Broadcast floods to both ring neighbors.
	for i := 1; i <= 3; i++ {
		before := poolEncodes(nodes[0])
		if _, _, err := nodes[0].Broadcast([]byte("flood")); err != nil {
			t.Fatal(err)
		}
		if got := poolEncodes(nodes[0]) - before; got != 1 {
			t.Fatalf("flood broadcast %d performed %d encodes, want exactly 1", i, got)
		}
	}

	// Converged: Broadcast forwards over the planned tree.
	settleTicks(nodes, 30)
	before := poolEncodes(nodes[0])
	if _, planned, err := nodes[0].Broadcast([]byte("tree")); err != nil {
		t.Fatal(err)
	} else if planned == 0 {
		t.Fatal("converged broadcast planned no copies")
	}
	if got := poolEncodes(nodes[0]) - before; got != 1 {
		t.Fatalf("tree broadcast performed %d encodes, want exactly 1", got)
	}
}

// TestRelayReusesInboundFrame: on an owning transport (the Fabric) a
// non-piggybacking relay forwards the inbound bytes verbatim — its
// encode pool is never touched — and the broadcast still reaches
// everyone.
func TestRelayReusesInboundFrame(t *testing.T) {
	g, err := topology.Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, nil)
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	if _, _, err := nodes[0].Broadcast([]byte("verbatim")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2} {
		d := waitDelivery(t, nodes[id])
		if string(d.Body) != "verbatim" {
			t.Fatalf("node %d delivered %q", id, d.Body)
		}
	}
	time.Sleep(5 * time.Millisecond) // let the relays finish forwarding
	for _, id := range []int{1, 2} {
		if got := poolEncodes(nodes[id]); got != 0 {
			t.Errorf("relay %d performed %d encodes; a verbatim relay must not re-serialize", id, got)
		}
	}
}

// TestPiggybackRelaySplices: a piggybacking relay re-serializes only its
// own snapshot (one pooled encode via the splice), and the spliced
// frames decode cleanly downstream — deliveries arrive and no snapshot
// merge is rejected.
func TestPiggybackRelaySplices(t *testing.T) {
	g, err := topology.Line(3) // 0-1-2: node 1 must relay for 2
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		return Config{Piggyback: true}
	})
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	if _, _, err := nodes[0].Broadcast([]byte("spliced")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2} {
		d := waitDelivery(t, nodes[id])
		if string(d.Body) != "spliced" {
			t.Fatalf("node %d delivered %q", id, d.Body)
		}
	}
	time.Sleep(5 * time.Millisecond)
	if got := poolEncodes(nodes[1]); got < 1 {
		t.Errorf("piggybacking relay performed %d pooled encodes, want >= 1 (the splice)", got)
	}
	for i, nd := range nodes {
		if s := nd.Stats(); s.SnapshotMergeErrors != 0 || s.DecodeErrors != 0 {
			t.Errorf("node %d: %d merge / %d decode errors on spliced frames",
				i, s.SnapshotMergeErrors, s.DecodeErrors)
		}
	}
}

// TestLaneBurstPreservesOrderAndSet: a burst of broadcasts through the
// lane scheduler — whose data frames may share multi-frame flushes —
// reaches the peer as the same delivery set, in per-origin order, with
// nothing shed.
func TestLaneBurstPreservesOrderAndSet(t *testing.T) {
	const msgs = 20
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		return Config{DeliveryBuffer: msgs + 4}
	})
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	for i := 0; i < msgs; i++ {
		if _, _, err := nodes[0].Broadcast([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if !nodes[0].WaitSendIdle(5 * time.Second) {
		t.Fatal("sender did not drain its lanes")
	}
	time.Sleep(10 * time.Millisecond) // fabric hand-off to the receiver

	got := drainDeliveries(nodes[1])
	if len(got) != msgs {
		t.Fatalf("receiver delivered %d messages, want %d", len(got), msgs)
	}
	for i, d := range got {
		if d.Origin != 0 || d.Seq != uint64(i+1) {
			t.Fatalf("delivery %d = origin %d seq %d; coalescing must preserve per-origin order",
				i, d.Origin, d.Seq)
		}
	}
	s := nodes[0].Stats()
	if s.LaneDrops != (LaneDrops{}) {
		t.Errorf("lane drops = %+v, want none at this depth", s.LaneDrops)
	}
}

// TestLaneSchedulerClusterDelivers: a multi-hop cluster delivers every
// broadcast at every node through the lane scheduler.
func TestLaneSchedulerClusterDelivers(t *testing.T) {
	const msgs = 10
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{})
	defer func() { _ = fabric.Close() }()
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		return Config{DeliveryBuffer: 4 * msgs}
	})
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	settleTicks(nodes, 30)

	for i := 0; i < msgs; i++ {
		origin := nodes[i%len(nodes)]
		if _, _, err := origin.Broadcast([]byte("lane")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, nd := range nodes {
			if nd.Stats().Delivered < msgs {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i, nd := range nodes {
				t.Logf("node %d delivered %d/%d", i, nd.Stats().Delivered, msgs)
			}
			t.Fatal("cluster did not deliver every broadcast")
		}
		tickAll(nodes)
	}
	for i, nd := range nodes {
		if d := nd.Stats().LaneDrops; d.Control != 0 {
			t.Errorf("node %d shed %d control frames; the control lane must be unbounded", i, d.Control)
		}
	}
}

// TestJoinLandsDuringDataSaturation is the lane-starvation property
// test: a joiner's announcement and the resulting epoch adoption must
// land within the usual settle budget even while every member's data
// lane is saturated past its (deliberately tiny) depth on a lossy
// fabric, because membership traffic rides the unbounded control lane.
func TestJoinLandsDuringDataSaturation(t *testing.T) {
	g, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewFabric(transport.FabricOptions{Seed: 11})
	defer func() { _ = fabric.Close() }()
	// Make every ring link lossy: saturation has to survive a degraded
	// network, not just a perfect one.
	for i := 0; i < 4; i++ {
		fabric.SetLoss(topology.NodeID(i), topology.NodeID((i+1)%4), 0.05)
	}
	nodes := buildCluster(t, g, fabric, func(i int) Config {
		return Config{LaneQueueDepth: 1}
	})
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	settleTicks(nodes, 30)

	// Saturate: a tight burst of broadcasts from every member against a
	// depth-1 data lane. The shed counter proves the lanes were actually
	// over the watermark while the join below went through.
	body := make([]byte, 1024)
	for round := 0; round < 50; round++ {
		for _, nd := range nodes {
			if _, _, err := nd.Broadcast(body); err != nil {
				t.Fatal(err)
			}
		}
	}

	joiner := joinNode(t, fabric, 4, 5, []topology.NodeID{0, 2}, 1, nil,
		Config{LaneQueueDepth: 1})
	nodes = append(nodes, joiner)
	settleTicks(nodes, 3)

	for i, nd := range nodes {
		if got := nd.Epoch(); got != 1 {
			t.Errorf("node %d still at epoch %d after the saturated join, want 1", i, got)
		}
	}
	shedData := 0
	for i, nd := range nodes {
		d := nd.Stats().LaneDrops
		shedData += d.Data
		if d.Control != 0 {
			t.Errorf("node %d shed %d control frames under saturation", i, d.Control)
		}
	}
	if shedData == 0 {
		t.Error("no data frames were shed; the burst never saturated the depth-1 lanes, so the test proved nothing")
	}
	// Heartbeats kept flowing throughout: the settle loop above only
	// terminates when traffic quiesces, but pin it explicitly.
	for i, nd := range nodes[:4] {
		if nd.Stats().HeartbeatsReceived == 0 {
			t.Errorf("node %d received no heartbeats", i)
		}
	}
}

// TestStuckTCPPeerDoesNotBlockSender pins why every send goes through
// the lane scheduler. Over TCP a write to a peer that stops reading
// blocks once the socket buffers fill (there is no write deadline), and
// a node that wrote from its callers or from its frame handler would
// block with it. Node 0 has two neighbors over loopback TCP: node 1, a
// healthy node, and process 2, a listener that accepts and never reads.
// Once the data toward 2 has filled the socket buffers, Tick and
// Broadcast on node 0 must still return promptly, node 1 must keep
// receiving heartbeats, and no control frame may be shed.
func TestStuckTCPPeerDoesNotBlockSender(t *testing.T) {
	stuck, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var heldMu sync.Mutex
	var held []net.Conn
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := stuck.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()

	healthyTr, err := transport.NewTCP(1, "127.0.0.1:0", nil, transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	senderTr, err := transport.NewTCP(0, "127.0.0.1:0", map[topology.NodeID]string{
		1: healthyTr.Addr().String(),
		2: stuck.Addr().String(),
	}, transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	healthyTr.AddPeer(0, senderTr.Addr().String())
	sender, err := New(Config{ID: 0, NumProcs: 3, Neighbors: []topology.NodeID{1, 2}, LaneQueueDepth: 16}, senderTr)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := New(Config{ID: 1, NumProcs: 3, Neighbors: []topology.NodeID{0}}, healthyTr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Closing the sender's transport first fails the write blocked on
		// the stuck peer, so the sender's lanes can drain and stop.
		_ = senderTr.Close()
		sender.Stop()
		healthy.Stop()
		_ = healthyTr.Close()
		_ = stuck.Close()
		<-acceptDone
		heldMu.Lock()
		for _, c := range held {
			_ = c.Close()
		}
		heldMu.Unlock()
	}()

	// within fails the test if f has not returned after d, instead of
	// hanging the test binary on a blocked call.
	within := func(what string, d time.Duration, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(d):
			t.Fatalf("%s blocked for more than %v behind the stuck peer", what, d)
		}
	}

	// Push data until the stuck peer's drain is wedged in a write: its
	// queue has filled and shed, and the lanes can no longer go idle.
	body := make([]byte, 64<<10)
	wedged, pushed := false, 0
	for ; pushed < 2000 && !wedged; pushed++ {
		within("Broadcast", 5*time.Second, func() {
			if _, _, err := sender.Broadcast(body); err != nil {
				t.Error(err)
			}
		})
		if pushed%16 == 15 && sender.Stats().LaneDrops.Data > 0 {
			wedged = !sender.WaitSendIdle(200 * time.Millisecond)
		}
	}
	if !wedged {
		t.Fatal("the writes toward the non-reading peer never blocked; the test proved nothing")
	}
	t.Logf("the stuck peer's drain wedged after %d broadcasts of %d KiB (%d data frames shed)",
		pushed, len(body)>>10, sender.Stats().LaneDrops.Data)

	hbBefore := healthy.Stats().HeartbeatsReceived
	for p := 0; p < 5; p++ {
		within("Tick", 2*time.Second, sender.Tick)
		within("Broadcast", 2*time.Second, func() {
			if _, _, err := sender.Broadcast([]byte("still moving")); err != nil {
				t.Error(err)
			}
		})
		healthy.Tick()
	}
	deadline := time.Now().Add(5 * time.Second)
	for healthy.Stats().HeartbeatsReceived <= hbBefore {
		if time.Now().After(deadline) {
			t.Fatalf("healthy peer received no heartbeat after the other peer got stuck (still %d)", hbBefore)
		}
		time.Sleep(time.Millisecond)
	}
	if d := sender.Stats().LaneDrops; d.Control != 0 {
		t.Errorf("sender shed %d control frames; the control lane must never shed", d.Control)
	}
}
