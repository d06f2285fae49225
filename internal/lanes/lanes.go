// Package lanes is the node's send path: a per-peer two-lane scheduler
// (control > data) with bounded data queues, modeled on the RSPP
// lane-scheduler shape. The node classifies every outbound frame into a
// lane and enqueues it; a per-peer drain goroutine flushes queued frames
// through the transport's batch fast paths, strictly by priority:
//
//   - Control (heartbeats, knowledge deltas, membership announcements —
//     everything the knowledge plane depends on) is never dropped and
//     always flushed first, so protocol-critical frames preempt a
//     saturated datapath instead of starving behind it.
//   - Data (broadcast payloads) is bounded: beyond the queue depth new
//     frames are shed (counted, and tolerable — loss is the protocol's
//     model). Frames that queue up while the drain is busy leave together
//     as one multi-frame flush (transport.SendFrames).
//
// Enqueue never blocks on the network. That is what keeps the node safe
// on a transport whose writes can block (TCP without write deadlines):
// the node's frame handler only enqueues, so a stuck peer stalls its own
// drain goroutine and nothing else.
//
// Buffer ownership: Enqueue takes ownership of the frame buffer's
// lifecycle, not its storage — the scheduler never mutates a frame, and
// calls the item's release callback exactly once, after the frame was
// flushed (the transport's Send contract returns the buffer to the
// caller on return), shed, or drained by Close or Forget. Callers
// recycling pooled encode buffers hand the pool's put as the release.
package lanes

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecast/internal/topology"
	"adaptivecast/internal/transport"
)

// Lane identifies a priority class. Lower values preempt higher ones.
type Lane uint8

const (
	// Control carries protocol-critical frames: heartbeats, knowledge
	// deltas, membership announcements. Never dropped, always first.
	Control Lane = iota
	// Data carries broadcast payloads: bounded, shed beyond QueueDepth,
	// coalesced into multi-frame flushes when they queue up.
	Data

	numLanes
)

// Config tunes the scheduler.
type Config struct {
	// QueueDepth bounds each peer's data queue (default 256). The
	// control queue is unbounded by design: control frames are few
	// (O(neighbors) per heartbeat period) and must never be dropped.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	return c
}

// Drops counts frames shed per lane. Control is structurally always 0 —
// the field exists so tests can assert exactly that.
type Drops struct {
	Control int
	Data    int
}

// Stats is a snapshot of scheduler counters.
type Stats struct {
	// Drops counts frames shed at enqueue, per lane.
	Drops Drops
	// Flushes counts transport flushes (control frames flush one by one
	// to preserve strict ordering; each counts).
	Flushes int
	// CoalescedFlushes counts data flushes that carried at least two
	// distinct frames — frames that queued up while the drain was busy.
	CoalescedFlushes int
	// CoalescedFrames counts data frames that shared a flush with at
	// least one other frame.
	CoalescedFrames int
	// SendFailures counts flushes the transport rejected structurally
	// (closed transport, unknown peer); per-copy loss is not visible
	// here.
	SendFailures int
}

// item is one queued frame.
type item struct {
	frame   []byte
	copies  int
	release func()
}

// Scheduler is the send path: one instance per node, one drain goroutine
// per peer (created lazily on first send to that peer, stopped by Forget
// or Close).
type Scheduler struct {
	tr  transport.Transport
	cfg Config

	mu      sync.Mutex
	peers   map[topology.NodeID]*peer
	retired map[topology.NodeID]bool // forgotten peers; Enqueue refuses them
	closed  bool
	wg      sync.WaitGroup

	drops            [numLanes]atomic.Int64
	flushes          atomic.Int64
	coalescedFlushes atomic.Int64
	coalescedFrames  atomic.Int64
	sendFailures     atomic.Int64
	pending          atomic.Int64
}

// New builds a scheduler over tr. Close it before closing the transport
// so queued frames drain onto a live transport.
func New(tr transport.Transport, cfg Config) *Scheduler {
	return &Scheduler{
		tr:      tr,
		cfg:     cfg.withDefaults(),
		peers:   make(map[topology.NodeID]*peer),
		retired: make(map[topology.NodeID]bool),
	}
}

// ErrClosed is returned by Enqueue after Close, and by Enqueue to a
// peer after Forget.
var ErrClosed = errors.New("lanes: scheduler closed")

// Enqueue hands one frame to a peer's lane. copies is the logical copy
// count (the per-edge m[j] burst; <= 0 is a no-op). release, if non-nil,
// is called exactly once when the scheduler is done with the frame —
// flushed, shed, or drained by Close or Forget — including on an error
// return, so the caller's buffer accounting never leaks.
//
// A nil error means the frame was accepted into a queue (or, for a shed
// data frame, accounted); it does not mean any copy reached the
// transport, mirroring Send's best-effort contract.
func (s *Scheduler) Enqueue(to topology.NodeID, ln Lane, frame []byte, copies int, release func()) error {
	if copies <= 0 {
		if release != nil {
			release()
		}
		return nil
	}
	if ln >= numLanes {
		if release != nil {
			release()
		}
		return errors.New("lanes: invalid lane")
	}
	p, err := s.peerFor(to)
	if err != nil {
		if release != nil {
			release()
		}
		return err
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if release != nil {
			release()
		}
		return ErrClosed
	}
	if ln == Data && len(p.q[Data]) >= s.cfg.QueueDepth {
		p.mu.Unlock()
		s.drops[Data].Add(1)
		if release != nil {
			release()
		}
		return nil
	}
	p.q[ln] = append(p.q[ln], item{frame: frame, copies: copies, release: release})
	s.pending.Add(1)
	p.mu.Unlock()
	p.kick()
	return nil
}

// peerFor returns (creating on first use) the drain state for a peer.
func (s *Scheduler) peerFor(to topology.NodeID) (*peer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.retired[to] {
		return nil, ErrClosed
	}
	if p, ok := s.peers[to]; ok {
		return p, nil
	}
	p := &peer{
		s:    s,
		to:   to,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	s.peers[to] = p
	s.wg.Add(1)
	//adaptivelint:goroutine stop=p.stop
	go p.loop()
	return p, nil
}

// Pending reports the frames currently queued across all peers and
// lanes (diagnostic; racy by nature).
func (s *Scheduler) Pending() int { return int(s.pending.Load()) }

// WaitIdle blocks until every queue is empty or the timeout elapses,
// reporting which. It is a test/shutdown helper: the scheduler is
// asynchronous, and assertions about delivered frames need the drain to
// have caught up.
func (s *Scheduler) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Drops: Drops{
			Control: int(s.drops[Control].Load()),
			Data:    int(s.drops[Data].Load()),
		},
		Flushes:          int(s.flushes.Load()),
		CoalescedFlushes: int(s.coalescedFlushes.Load()),
		CoalescedFrames:  int(s.coalescedFrames.Load()),
		SendFailures:     int(s.sendFailures.Load()),
	}
}

// Forget retires one peer — a departed process, whose ID is never
// reused: its queued frames still drain onto the transport, then its
// drain goroutine exits, and Enqueue to it fails with ErrClosed from
// now on. Forget does not wait for the drain (a departed peer's
// transport may be slow to fail); Close does.
func (s *Scheduler) Forget(to topology.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.retired[to] = true
	if p, ok := s.peers[to]; ok {
		delete(s.peers, to)
		p.shutdown()
	}
}

// Close drains every queue — control and data frames still flush onto
// the transport — then stops the drain goroutines, forgotten peers'
// included. Enqueue fails afterwards. Close the scheduler before the
// transport.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for _, p := range s.peers {
		p.shutdown()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// peer is one destination's queues plus its drain goroutine's state.
// Channel ownership and the drain goroutine's lifecycle are declared
// for adaptivelint (chanowner, goroleak).
//
//adaptivelint:goroutines checked
type peer struct {
	s  *Scheduler
	to topology.NodeID
	//adaptivelint:chan owner=peer.kick close=never
	wake chan struct{}
	// stop is closed once, by shutdown, which Scheduler.Close and
	// Scheduler.Forget call with the peer removed from (or the scheduler
	// closed to) further lookups.
	//adaptivelint:chan owner=none close=peer.shutdown
	stop chan struct{}

	mu     sync.Mutex
	closed bool
	q      [numLanes][]item
}

// shutdown marks the peer closed to Enqueue and tells its drain to
// finish what is queued and exit. Callers hold the scheduler lock, and
// reach each peer at most once: Forget removes it from the map, Close
// runs once.
func (p *peer) shutdown() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
}

// kick nudges the drain goroutine; a full wake channel means a nudge is
// already pending.
func (p *peer) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// loop drains the peer's lanes by strict priority until closed and
// empty. Control flushes frame by frame (ordering is part of the
// protocol's serialized-input assumption); data flushes as one
// multi-frame batch, which is where coalescing happens.
func (p *peer) loop() {
	defer p.s.wg.Done()
	for {
		ctl, data, done := p.collect()
		if done {
			return
		}
		if ctl == nil && data == nil {
			select {
			case <-p.wake:
			case <-p.stop:
			}
			continue
		}
		p.flushOneByOne(ctl)
		p.flushBatch(data)
	}
}

// collect pops both queues under the queue lock; done reports a closed
// and fully drained peer.
func (p *peer) collect() (ctl, data []item, done bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ctl, p.q[Control] = p.q[Control], nil
	data, p.q[Data] = p.q[Data], nil
	done = p.closed && ctl == nil && data == nil
	return ctl, data, done
}

// flushOneByOne sends items individually through the SendN fast path,
// preserving per-frame ordering. The pending counter drops only once a
// frame has reached the transport, so WaitIdle covers in-flight
// flushes, not just queue occupancy.
func (p *peer) flushOneByOne(items []item) {
	for _, it := range items {
		if _, err := transport.SendN(p.s.tr, p.to, it.frame, it.copies); err != nil {
			p.s.sendFailures.Add(1)
		}
		p.s.flushes.Add(1)
		if it.release != nil {
			it.release()
		}
		p.s.pending.Add(-1)
	}
}

// flushBatch sends a data batch as one coalesced multi-frame flush.
func (p *peer) flushBatch(items []item) {
	if len(items) == 0 {
		return
	}
	batch := make([]transport.FrameBatch, len(items))
	for i, it := range items {
		batch[i] = transport.FrameBatch{Frame: it.frame, Copies: it.copies}
	}
	if _, err := transport.SendFrames(p.s.tr, p.to, batch); err != nil {
		p.s.sendFailures.Add(1)
	}
	p.s.flushes.Add(1)
	if len(items) >= 2 {
		p.s.coalescedFlushes.Add(1)
		p.s.coalescedFrames.Add(int64(len(items)))
	}
	for _, it := range items {
		if it.release != nil {
			it.release()
		}
	}
	p.s.pending.Add(-int64(len(items)))
}
