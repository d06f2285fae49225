// Pubsub: the paper's motivating application — a large-scale
// publish/subscribe system — built on the adaptive reliable broadcast.
//
// Every published event is reliably broadcast to all nodes; each node
// filters the stream against its local subscriptions. The broadcast layer
// guarantees (with probability K) that every subscriber sees every event,
// while the adaptive MRT keeps the message cost near the provable minimum
// instead of flooding every link like a classic gossip bus.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"strings"
	"time"

	"adaptivecast"
)

// event is a published message on a topic.
type event struct {
	Topic   string `json:"topic"`
	Payload string `json:"payload"`
}

// subscriber consumes a node's delivery stream and filters by topic.
type subscriber struct {
	node   adaptivecast.NodeID
	topics map[string]bool
}

func (s *subscriber) interested(topic string) bool {
	if s.topics[topic] {
		return true
	}
	// Prefix subscriptions: "metrics/*" matches "metrics/cpu".
	for t := range s.topics {
		if strings.HasSuffix(t, "/*") && strings.HasPrefix(topic, strings.TrimSuffix(t, "*")) {
			return true
		}
	}
	return false
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 3x3 grid of brokers.
	grid, err := adaptivecast.Grid(3, 3)
	if err != nil {
		return err
	}
	cluster, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{
		Topology: grid,
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

	subs := []*subscriber{
		{node: 2, topics: map[string]bool{"orders": true}},
		{node: 4, topics: map[string]bool{"metrics/*": true}},
		{node: 8, topics: map[string]bool{"orders": true, "metrics/cpu": true}},
	}

	// Each subscriber registers a handler on its broker node; the handler
	// feeds a private stream so the printout below stays ordered.
	streams := make([]chan adaptivecast.Delivery, len(subs))
	for i, sub := range subs {
		ch := make(chan adaptivecast.Delivery, 16)
		streams[i] = ch
		cluster.Node(sub.node).Subscribe(func(d adaptivecast.Delivery) { ch <- d })
	}

	cluster.Start()
	time.Sleep(250 * time.Millisecond) // knowledge warm-up

	events := []event{
		{Topic: "orders", Payload: "order #1842 created"},
		{Topic: "metrics/cpu", Payload: "node7 cpu=93%"},
		{Topic: "metrics/mem", Payload: "node3 mem=71%"},
		{Topic: "audit", Payload: "login from 10.0.0.7"},
	}
	for _, ev := range events {
		body, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		// Publishers can sit on any broker; use node 0.
		if _, _, err := cluster.Broadcast(0, body); err != nil {
			return err
		}
	}

	// Every broker receives every event (reliable broadcast); the
	// subscription filter decides what reaches the application.
	for i, sub := range subs {
		fmt.Printf("subscriber on node %d (topics %v):\n", sub.node, keys(sub.topics))
		for range events {
			select {
			case d := <-streams[i]:
				var ev event
				if err := json.Unmarshal(d.Body, &ev); err != nil {
					return err
				}
				if sub.interested(ev.Topic) {
					fmt.Printf("  MATCH %-12s %s\n", ev.Topic, ev.Payload)
				} else {
					fmt.Printf("  skip  %-12s\n", ev.Topic)
				}
			case <-time.After(5 * time.Second):
				return fmt.Errorf("node %d missed an event", sub.node)
			}
		}
	}
	fmt.Printf("\nbroadcast cost per event ≈ %d data messages across %d links\n",
		perEventCost(cluster), grid.NumLinks())
	return nil
}

func perEventCost(c *adaptivecast.Cluster) int {
	total := 0
	for i := 0; i < c.NumNodes(); i++ {
		total += c.Node(adaptivecast.NodeID(i)).Stats().DataSent
	}
	return total / 4 // four events published
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
