package adaptivecast_test

import (
	"runtime"
	"testing"
	"time"

	"adaptivecast"
)

func testCluster(t *testing.T, n int) *adaptivecast.Cluster {
	t.Helper()
	ring, err := adaptivecast.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{Topology: ring})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestClusterBroadcastBounds covers both sides of the originator range
// check.
func TestClusterBroadcastBounds(t *testing.T) {
	c := testCluster(t, 4)
	if _, _, err := c.Broadcast(-1, []byte("x")); err == nil {
		t.Error("negative originator should fail")
	}
	if _, _, err := c.Broadcast(4, []byte("x")); err == nil {
		t.Error("originator == NumNodes should fail")
	}
	if _, _, err := c.Broadcast(3, []byte("x")); err != nil {
		t.Errorf("in-range originator failed: %v", err)
	}
}

// TestClusterCloseIdempotent closes a cluster twice: the second call must
// be a no-op returning the first result, and the cluster must stay
// queryable. Membership changes after close must fail without touching
// the ledger or starting anything.
func TestClusterCloseIdempotent(t *testing.T) {
	c := testCluster(t, 3)
	c.Start()
	time.Sleep(10 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Stats stay readable and broadcasts fail cleanly after close.
	_ = c.Node(0).Stats()
	if _, _, err := c.Broadcast(0, []byte("x")); err == nil {
		t.Error("broadcast after close should fail")
	}

	nodes, epoch := c.NumNodes(), c.Topology().Epoch()
	goroutines := runtime.NumGoroutine()
	if _, err := c.AddNode(0); err == nil {
		t.Error("AddNode after close should fail")
	}
	if err := c.RemoveNode(1); err == nil {
		t.Error("RemoveNode after close should fail")
	}
	if got := c.NumNodes(); got != nodes {
		t.Errorf("NumNodes = %d after membership changes on a closed cluster, want %d", got, nodes)
	}
	if got := c.Topology().Epoch(); got != epoch {
		t.Errorf("epoch = %d after membership changes on a closed cluster, want %d", got, epoch)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("third close: %v", err)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("goroutines grew from %d to %d after membership changes on a closed cluster", goroutines, got)
	}
}

// TestClusterAdaptiveCadence drives the WithAdaptiveCadence plumbing
// through the cluster facade: a converged stable cluster must send
// measurably fewer heartbeat frames per period than one period per
// neighbor, while still knowing the full topology.
func TestClusterAdaptiveCadence(t *testing.T) {
	ring, err := adaptivecast.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{
		Topology: ring,
		Options: []adaptivecast.Option{
			adaptivecast.WithHeartbeat(time.Millisecond),
			adaptivecast.WithAdaptiveCadence(8 * time.Millisecond), // 8δ cap
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// heartbeats sums the cluster's heartbeat counters.
	heartbeats := func() (sent, received int) {
		for i := 0; i < 4; i++ {
			st := c.Node(adaptivecast.NodeID(i)).Stats()
			sent += st.HeartbeatsSent
			received += st.HeartbeatsReceived
		}
		return sent, received
	}
	// Every node's heartbeats are drained before the next node ticks, so
	// the schedule is the same on every run: a frame still in flight would
	// otherwise reach its receiver before or after the receiver's own tick
	// depending on goroutine scheduling. The links are lossless, so a tick
	// is drained once every heartbeat sent has been received and the send
	// lanes are idle. The wait yields instead of sleeping: a sleep rounds
	// up to the timer granularity, thousands of times per run.
	tick := func(n int) {
		for i := 0; i < n; i++ {
			for id := 0; id < 4; id++ {
				nd := c.Node(adaptivecast.NodeID(id))
				nd.Tick()
				deadline := time.Now().Add(5 * time.Second)
				for sent, received := heartbeats(); sent != received; sent, received = heartbeats() {
					if time.Now().After(deadline) {
						t.Fatalf("period %d: %d heartbeats sent, %d received", i, sent, received)
					}
					runtime.Gosched()
				}
				if !nd.WaitSendIdle(5 * time.Second) {
					t.Fatalf("node %d send lanes never went idle", id)
				}
			}
		}
	}
	tick(500) // converge and stretch
	before, _ := heartbeats()
	tick(32)
	after, _ := heartbeats()
	full := 4 * 2 * 32 // nodes × neighbors × periods at fixed cadence
	if got := after - before; 2*got > full {
		t.Errorf("adaptive cluster sent %d frames over 32 periods, want at most half the fixed %d", got, full)
	}
	for i := 0; i < 4; i++ {
		if got := len(c.Node(adaptivecast.NodeID(i)).KnownLinks()); got != 4 {
			t.Errorf("node %d knows %d links under adaptive cadence, want 4", i, got)
		}
	}
}

// TestClusterNodeAccess exercises the thin-layer escape hatch: per-node
// subscription through the cluster.
func TestClusterNodeAccess(t *testing.T) {
	c := testCluster(t, 4)
	got := make(chan adaptivecast.Delivery, 4)
	c.Node(2).Subscribe(func(d adaptivecast.Delivery) { got <- d })

	for i := 0; i < 10; i++ {
		c.Tick()
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, err := c.Broadcast(0, []byte("to the handler")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if string(d.Body) != "to the handler" || d.Origin != 0 {
			t.Errorf("delivery = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber on node 2 never fired")
	}
}
