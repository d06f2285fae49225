// Quickstart: run a 6-node in-process cluster, let it learn the topology,
// and reliably broadcast a message from node 0 to everyone, consuming the
// deliveries with subscription handlers.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"adaptivecast"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ring, err := adaptivecast.Ring(6)
	if err != nil {
		return err
	}
	cluster, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{
		Topology: ring,
		Options:  []adaptivecast.Option{adaptivecast.WithHeartbeat(10 * time.Millisecond)},
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := cluster.Close(); cerr != nil {
			log.Print(cerr)
		}
	}()

	// Subscribe a handler on every node before traffic flows.
	var wg sync.WaitGroup
	wg.Add(cluster.NumNodes())
	for i := 0; i < cluster.NumNodes(); i++ {
		id := adaptivecast.NodeID(i)
		cluster.Node(id).Subscribe(func(d adaptivecast.Delivery) {
			fmt.Printf("node %d delivered %q (origin %d)\n", id, d.Body, d.Origin)
			wg.Done()
		})
	}

	// Start the knowledge activity (Algorithm 4) on real timers and give
	// the heartbeats a moment to spread the topology.
	cluster.Start()
	time.Sleep(200 * time.Millisecond)
	fmt.Printf("node 0 discovered %d of %d links\n",
		len(cluster.Node(0).KnownLinks()), ring.NumLinks())

	// Reliable broadcast (Algorithm 1): the message rides a Maximum
	// Reliability Tree with per-edge retransmission counts meeting the
	// 0.9999 delivery target.
	seq, planned, err := cluster.Broadcast(0, []byte("hello, unreliable world"))
	if err != nil {
		return err
	}
	fmt.Printf("broadcast #%d planned %d data messages\n", seq, planned)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("not every node delivered")
	}
	return nil
}
