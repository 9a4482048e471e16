// Package rt is a real-time runtime for the synchronization protocols: the
// exact same node.Protocol implementations that run on the deterministic
// simulator run here over wall-clock time, goroutines, and channels.
//
// Each process is one goroutine owning an inbox channel; timers are
// time.AfterFunc callbacks posted to the inbox; message delays are drawn
// from a configured window and applied on the sender side. Hardware clocks
// are synthesized over the wall clock as H(t) = offset + rate·elapsed with
// per-node rates inside the drift envelope, so the protocols face genuine
// (if tame) clock skew and drift.
//
// The runtime serializes all protocol interaction per node through the
// node's event loop: Start, Deliver, and timer callbacks all execute on
// the loop goroutine, so protocol code needs no locking — the same
// discipline the simulator provides. Reading clocks from outside (for
// measurements) is safe via Cluster.ReadLogical, which takes the node's
// adjustment lock.
//
// This runtime exists to demonstrate that the library is a protocol
// implementation, not a simulation artifact; it deliberately keeps the
// transport in-process (channels). Swapping in net.UDPConn per link would
// only change dial/encode plumbing, not protocol code.
package rt

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"optsync/internal/clock"
	"optsync/internal/node"
	"optsync/internal/sig"
)

// Config assembles a real-time cluster.
type Config struct {
	N, F int
	Seed int64
	// Rho bounds synthetic clock rates: each node gets a fixed rate in
	// [1/(1+Rho), 1+Rho].
	Rho clock.Rho
	// MaxOffset bounds the synthetic initial clock offsets (seconds).
	MaxOffset float64
	// DelayMin, DelayMax bound the artificial message delays.
	DelayMin, DelayMax time.Duration
	// Scheme is the signature scheme; nil selects HMAC.
	Scheme sig.Scheme
	// Protocols builds node i's program.
	Protocols func(i int) node.Protocol
}

// Cluster runs N protocol instances in real time.
type Cluster struct {
	cfg   Config
	nodes []*rtNode
	start time.Time

	mu      sync.Mutex
	pulses  []node.PulseRecord
	stopped bool
}

type envelope struct {
	from node.ID
	msg  node.Message
}

type rtNode struct {
	id      node.ID
	c       *Cluster
	proto   node.Protocol
	inbox   chan func()
	rng     *rand.Rand
	rate    float64
	offset  float64
	done    chan struct{}
	stopped sync.Once

	// adjMu guards adj, the logical clock adjustment, for cross-goroutine
	// reads by measurements.
	adjMu sync.Mutex
	adj   float64
}

var _ node.Env = (*rtNode)(nil)

// New builds a cluster (not yet started).
func New(cfg Config) *Cluster {
	if cfg.N <= 0 || cfg.Protocols == nil {
		panic("rt: invalid config")
	}
	if cfg.Scheme == nil {
		cfg.Scheme = sig.NewHMAC(cfg.N, cfg.Seed)
	}
	if cfg.DelayMax <= 0 {
		cfg.DelayMax = 5 * time.Millisecond
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.N; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(0x9E3779B97F4A7C15*uint64(i+1))))
		lo, hi := cfg.Rho.MinRate(), cfg.Rho.MaxRate()
		c.nodes = append(c.nodes, &rtNode{
			id:     i,
			c:      c,
			proto:  cfg.Protocols(i),
			inbox:  make(chan func(), 1024),
			rng:    rng,
			rate:   lo + rng.Float64()*(hi-lo),
			offset: rng.Float64() * cfg.MaxOffset,
			done:   make(chan struct{}),
		})
	}
	return c
}

// Start boots every node.
func (c *Cluster) Start() {
	c.start = time.Now()
	for _, nd := range c.nodes {
		nd := nd
		go nd.loop()
		nd.post(func() { nd.proto.Start(nd) })
	}
}

// Stop shuts all nodes down. Safe to call once.
func (c *Cluster) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	for _, nd := range c.nodes {
		nd.stopped.Do(func() { close(nd.done) })
	}
}

// Pulses returns a snapshot of recorded pulses.
func (c *Cluster) Pulses() []node.PulseRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]node.PulseRecord(nil), c.pulses...)
}

// ReadLogical reads node id's logical clock now (thread-safe).
func (c *Cluster) ReadLogical(id node.ID) float64 {
	return c.nodes[id].logicalAt(time.Now())
}

// Skew returns the max pairwise logical clock difference over ids, sampled
// as close to simultaneously as the runtime allows.
func (c *Cluster) Skew(ids []node.ID) float64 {
	now := time.Now()
	lo, hi := 0.0, 0.0
	for i, id := range ids {
		v := c.nodes[id].logicalAt(now)
		if i == 0 {
			lo, hi = v, v
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

func (nd *rtNode) loop() {
	for {
		select {
		case fn := <-nd.inbox:
			fn()
		case <-nd.done:
			return
		}
	}
}

// post enqueues fn onto the node's loop; drops when the node is stopped or
// the inbox is full (equivalent to a lossy late message; bounded inboxes
// keep a runaway sender from wedging the process).
func (nd *rtNode) post(fn func()) {
	select {
	case nd.inbox <- fn:
	case <-nd.done:
	default:
	}
}

// hardwareAt returns H(t) for wall time t.
func (nd *rtNode) hardwareAt(t time.Time) float64 {
	return nd.offset + nd.rate*t.Sub(nd.c.start).Seconds()
}

func (nd *rtNode) logicalAt(t time.Time) float64 {
	nd.adjMu.Lock()
	defer nd.adjMu.Unlock()
	return nd.hardwareAt(t) + nd.adj
}

// ID implements node.Env.
func (nd *rtNode) ID() node.ID { return nd.id }

// N implements node.Env.
func (nd *rtNode) N() int { return nd.c.cfg.N }

// F implements node.Env.
func (nd *rtNode) F() int { return nd.c.cfg.F }

// LogicalTime implements node.Env.
func (nd *rtNode) LogicalTime() float64 { return nd.logicalAt(time.Now()) }

// HardwareTime implements node.Env.
func (nd *rtNode) HardwareTime() float64 { return nd.hardwareAt(time.Now()) }

// SetLogical implements node.Env.
func (nd *rtNode) SetLogical(value float64) {
	now := time.Now()
	nd.adjMu.Lock()
	nd.adj = value - nd.hardwareAt(now)
	nd.adjMu.Unlock()
}

// AtLogical implements node.Env.
func (nd *rtNode) AtLogical(value float64, fn func()) node.Timer {
	now := time.Now()
	nd.adjMu.Lock()
	cur := nd.hardwareAt(now) + nd.adj
	adj := nd.adj
	nd.adjMu.Unlock()
	var wait time.Duration
	if value > cur {
		// Convert the logical distance to wall time via the clock rate.
		localDelta := value - adj - nd.hardwareAt(now)
		wait = time.Duration(localDelta / nd.rate * float64(time.Second))
	}
	t := &rtTimer{}
	t.timer = time.AfterFunc(wait, func() {
		nd.post(func() {
			if !t.cancelled {
				fn()
			}
		})
	})
	return t
}

// rtTimer is a pending AtLogical callback. cancelled is set by Cancel and
// read by the posted callback, both on the node's loop goroutine, so a
// timer that had already fired into the inbox when it was cancelled still
// does not run: Cancel is exact, as it is on the simulator, and protocols
// may rely on only their latest timer firing.
type rtTimer struct {
	timer     *time.Timer
	cancelled bool
}

// Cancel implements node.Env.
func (nd *rtNode) Cancel(t node.Timer) {
	if t == nil {
		return
	}
	tm, ok := t.(*rtTimer)
	if !ok {
		panic(fmt.Sprintf("rt: foreign timer handle %T", t))
	}
	tm.cancelled = true
	tm.timer.Stop()
}

// Send implements node.Env.
func (nd *rtNode) Send(to node.ID, msg node.Message) {
	d := nd.c.cfg.DelayMin
	if window := nd.c.cfg.DelayMax - nd.c.cfg.DelayMin; window > 0 {
		d += time.Duration(nd.rng.Int63n(int64(window)))
	}
	dst := nd.c.nodes[to]
	from := nd.id
	time.AfterFunc(d, func() {
		dst.post(func() { dst.proto.Deliver(dst, from, msg) })
	})
}

// Broadcast implements node.Env.
func (nd *rtNode) Broadcast(msg node.Message) {
	for i := range nd.c.nodes {
		nd.Send(i, msg)
	}
}

// Sign implements node.Env.
func (nd *rtNode) Sign(payload []byte) sig.Signature {
	return nd.c.cfg.Scheme.Sign(nd.id, payload)
}

// Verify implements node.Env.
func (nd *rtNode) Verify(signer node.ID, payload []byte, s sig.Signature) bool {
	return nd.c.cfg.Scheme.Verify(signer, payload, s)
}

// Pulse implements node.Env.
func (nd *rtNode) Pulse(round int) {
	now := time.Now()
	rec := node.PulseRecord{
		Node:    nd.id,
		Round:   round,
		Real:    now.Sub(nd.c.start).Seconds(),
		Logical: nd.logicalAt(now),
	}
	nd.c.mu.Lock()
	nd.c.pulses = append(nd.c.pulses, rec)
	nd.c.mu.Unlock()
}

// Rand implements node.Env.
func (nd *rtNode) Rand() *rand.Rand { return nd.rng }

// RealTime implements node.Env.
func (nd *rtNode) RealTime() float64 { return time.Since(nd.c.start).Seconds() }
