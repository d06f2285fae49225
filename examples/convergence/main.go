// Convergence: watch the knowledge layer (Algorithm 4) learn a link's
// true loss probability in real time. A two-node cluster exchanges
// heartbeats over a 15%-lossy link; every 100 periods the example prints
// both nodes' Bayesian point estimates and their distance from the truth.
//
// This is the paper's Figure 5 mechanism at miniature, observable scale.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"adaptivecast"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const trueLoss = 0.15
	line, err := adaptivecast.Line(2)
	if err != nil {
		return err
	}
	link := adaptivecast.NewLink(0, 1)
	cluster, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{
		Topology: line,
		LinkLoss: map[adaptivecast.Link]float64{link: trueLoss},
		Seed:     2024,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := cluster.Close(); cerr != nil {
			log.Print(cerr)
		}
	}()

	fmt.Printf("true loss probability of %v: %.2f\n", link, trueLoss)
	fmt.Printf("%-8s %-12s %-12s %-10s\n", "period", "node0 est", "node1 est", "max error")

	// Pace the cluster deterministically with Tick so the printout is
	// stable; Start() would do the same on wall-clock timers.
	for period := 1; period <= 1000; period++ {
		cluster.Tick()
		if period%25 == 0 {
			time.Sleep(time.Millisecond) // let the fabric drain
		}
		if period%100 != 0 {
			continue
		}
		e0, _, ok0 := cluster.Node(0).LossEstimate(link)
		e1, _, ok1 := cluster.Node(1).LossEstimate(link)
		if !ok0 || !ok1 {
			return fmt.Errorf("link vanished from a view")
		}
		errMax := math.Max(math.Abs(e0-trueLoss), math.Abs(e1-trueLoss))
		fmt.Printf("%-8d %-12.4f %-12.4f %-10.4f\n", period, e0, e1, errMax)
	}

	fmt.Println("\nboth estimators concentrated on the interval containing the truth;")
	fmt.Println("in a full system these estimates spread to every node with heartbeats")
	fmt.Println("(distortion factors decide which copy wins — see internal/knowledge).")
	return nil
}
