package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"optsync"
	"optsync/internal/node"
	"optsync/internal/sig"
)

// Tracing lives entirely in this directory: spans are recorded around the
// calls INTO each layer, from outside. For optsync.Run workloads that
// means a protocol registered through optsync.RegisterProtocol that builds
// the real protocol with optsync.NewProtocol and hands it a wrapping
// node.Env, so that
//
//	Start / Deliver / timer callbacks      -> core
//	Env.Sign / Env.Verify                  -> sig
//	Env.Broadcast / Env.Send               -> network (send side)
//	Env.SetLogical / AtLogical / Cancel    -> clock
//
// are timed at the boundary. The first builder call to the first Start is
// the harness cluster build; whatever remains of the op is the event
// core, network delivery and metrics together (sim.rest) — that split
// cannot be seen from outside.

// sampleEvery is the per-message sampling rate: a node times one in
// sampleEvery of its Deliver and timer callbacks (and the Env calls made
// inside it) and only counts the others. Counts are exact, times are
// scaled by count/sampled when folded. Two clock reads around each of
// 350 000 deliveries would cost a quarter of mesh256-prim's op. Which
// callbacks are timed is drawn from a per-node xorshift stream, not from
// the call counter: a node on ring:8 receives about sixteen messages a
// round, and a fixed stride of sixteen would time the same phase of every
// round.
const sampleEvery = 16

type callKind uint8

const (
	cbStart callKind = iota
	cbDeliver
	cbTimer
	numCallKinds
)

var callNames = [numCallKinds]string{"core.start", "core.deliver", "core.timer"}

type envKind uint8

const (
	envSign envKind = iota
	envVerify
	envBroadcast
	envSend
	envSetLogical
	envAtLogical
	envCancel
	envReadClock
	numEnvKinds
)

var envNames = [numEnvKinds]string{
	"sig.sign", "sig.verify",
	"network.broadcast", "network.send",
	"clock.set_logical", "clock.at_logical", "clock.cancel", "clock.read",
}

// slot accumulates one (name, parent) pair on one node.
type slot struct {
	count   uint64 // every call
	sampled uint64 // calls that were timed
	ns      int64  // time of the timed calls
}

// estimate scales the sampled time up to all calls.
func (s slot) estimate() int64 {
	if s.sampled == 0 {
		return 0
	}
	return int64(float64(s.ns) * float64(s.count) / float64(s.sampled))
}

func (s *slot) add(o slot) {
	s.count += o.count
	s.sampled += o.sampled
	s.ns += o.ns
}

// nodeAcc is one node's accumulator. Shards call back into different
// nodes concurrently, so nothing here is shared between nodes; an op's
// accumulators are merged after Run returns.
type nodeAcc struct {
	rng      uint32 // xorshift32 state, never 0
	cb       [numCallKinds]slot
	env      [numCallKinds][numEnvKinds]slot
	pulses   uint64
	useful   uint64 // Delivers that made at least one Env call
	cur      callKind
	timing   bool
	envCalls int
	t0       time.Time
}

func (a *nodeAcc) enter(k callKind) {
	a.cur = k
	a.envCalls = 0
	a.cb[k].count++
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 17
	a.rng ^= a.rng << 5
	// Start runs once per node: time them all.
	if k == cbStart || a.rng%sampleEvery == 0 {
		a.timing = true
		a.t0 = time.Now()
	}
}

func (a *nodeAcc) leave() {
	if a.timing {
		s := &a.cb[a.cur]
		s.sampled++
		s.ns += int64(time.Since(a.t0))
		a.timing = false
	}
	if a.cur == cbDeliver && a.envCalls > 0 {
		a.useful++
	}
}

// tracedProto wraps the protocol of one correct node.
type tracedProto struct {
	inner node.Protocol
	tr    *opTrace
	env   tracedEnv
}

func (p *tracedProto) Start(env node.Env) {
	p.tr.noteFirstStart()
	p.env.Env = env
	a := p.env.acc
	a.enter(cbStart)
	p.inner.Start(&p.env)
	a.leave()
}

func (p *tracedProto) Deliver(_ node.Env, from node.ID, msg node.Message) {
	a := p.env.acc
	a.enter(cbDeliver)
	p.inner.Deliver(&p.env, from, msg)
	a.leave()
}

// tracedEnv is the node.Env handed to the wrapped protocol. Methods not
// overridden here (Rand, RealTime, Pulse's bookkeeping) pass through.
type tracedEnv struct {
	node.Env
	acc *nodeAcc
}

// timed runs fn as Env call k of the current callback.
func (e *tracedEnv) timed(k envKind, fn func()) {
	a := e.acc
	a.envCalls++
	s := &a.env[a.cur][k]
	s.count++
	if !a.timing {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	s.ns += int64(time.Since(t0))
	s.sampled++
}

func (e *tracedEnv) ID() node.ID { e.acc.envCalls++; return e.Env.ID() }
func (e *tracedEnv) N() int      { e.acc.envCalls++; return e.Env.N() }
func (e *tracedEnv) F() int      { e.acc.envCalls++; return e.Env.F() }

func (e *tracedEnv) Pulse(round int) {
	e.acc.envCalls++
	e.acc.pulses++
	e.Env.Pulse(round)
}

func (e *tracedEnv) Sign(payload []byte) (s sig.Signature) {
	e.timed(envSign, func() { s = e.Env.Sign(payload) })
	return s
}

func (e *tracedEnv) Verify(signer node.ID, payload []byte, s sig.Signature) (ok bool) {
	e.timed(envVerify, func() { ok = e.Env.Verify(signer, payload, s) })
	return ok
}

func (e *tracedEnv) Broadcast(msg node.Message) {
	e.timed(envBroadcast, func() { e.Env.Broadcast(msg) })
}

func (e *tracedEnv) Send(to node.ID, msg node.Message) {
	e.timed(envSend, func() { e.Env.Send(to, msg) })
}

func (e *tracedEnv) SetLogical(v float64) {
	e.timed(envSetLogical, func() { e.Env.SetLogical(v) })
}

func (e *tracedEnv) AtLogical(v float64, fn func()) (t node.Timer) {
	a := e.acc
	wrapped := func() {
		a.enter(cbTimer)
		fn()
		a.leave()
	}
	e.timed(envAtLogical, func() { t = e.Env.AtLogical(v, wrapped) })
	return t
}

func (e *tracedEnv) Cancel(t node.Timer) {
	e.timed(envCancel, func() { e.Env.Cancel(t) })
}

func (e *tracedEnv) LogicalTime() (v float64) {
	e.timed(envReadClock, func() { v = e.Env.LogicalTime() })
	return v
}

func (e *tracedEnv) HardwareTime() (v float64) {
	e.timed(envReadClock, func() { v = e.Env.HardwareTime() })
	return v
}

// tracedPrefix turns a built-in algorithm name into its traced twin.
const tracedPrefix = "bench-traced/"

// currentTrace is the op the traced builders attach to. The load is a
// closed loop with one client, so exactly one traced Run is in flight at a
// time; the pointer is atomic only because shard workers read it.
var currentTrace atomic.Pointer[opTrace]

func tracedAlgo(inner optsync.Algorithm) optsync.Algorithm {
	return optsync.Algorithm(tracedPrefix + string(inner))
}

func init() {
	for _, inner := range []optsync.Algorithm{optsync.AlgoAuth, optsync.AlgoPrim} {
		inner := inner
		optsync.RegisterProtocol(tracedAlgo(inner),
			func(spec optsync.Spec) (optsync.Protocol, error) {
				tr := currentTrace.Load()
				if tr == nil {
					return nil, fmt.Errorf("bench: %s built outside a traced op", spec.Algo)
				}
				spec.Algo = inner
				p, err := optsync.NewProtocol(spec)
				if err != nil {
					return nil, err
				}
				return &tracedProto{inner: p, tr: tr, env: tracedEnv{acc: tr.newNode()}}, nil
			},
			// The same accuracy envelope the built-ins register, so a traced
			// result differs from an untraced one in Spec.Algo alone.
			optsync.WithEnvelope(func(spec optsync.Spec, span float64) (lo, hi float64) {
				return spec.Params.EnvelopeRateBoundsOver(span)
			}))
	}
}

// span is one recorded interval, or — for per-message work — the fold of
// every interval of one (name, parent) pair within one op.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     int    `json:"op"`
	// StartNs/EndNs are nanoseconds since the trace began; folded spans
	// have none.
	StartNs int64 `json:"start_ns,omitempty"`
	EndNs   int64 `json:"end_ns,omitempty"`
	// Count is exact. Sampled is how many of them were timed (0: all).
	Count   uint64 `json:"count"`
	Sampled uint64 `json:"sampled,omitempty"`
	// TotalNs is the (scaled) time inside the span, SelfNs what is left
	// after its children.
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// opTrace collects the spans of one traced op.
type opTrace struct {
	op    int
	epoch time.Time
	// parallel marks ops whose layers run on several cores at once
	// (sharded runs): layer times are then compared against the op's CPU
	// time, not its wall time.
	parallel bool
	// withoutLake asks lake-record for the same run with no lake writer,
	// the baseline of tracelake.record_overhead_frac.
	withoutLake bool

	start, end time.Time
	cpu        time.Duration

	mu         sync.Mutex
	nodes      []*nodeAcc
	stages     []span
	firstBuild atomic.Int64 // ns since epoch, 0 = not yet
	firstStart atomic.Int64

	// counts are exact per-op quantities taken from results (messages,
	// events, RPCs).
	counts map[string]float64
}

func newOpTrace(op int, epoch time.Time) *opTrace {
	return &opTrace{op: op, epoch: epoch, counts: make(map[string]float64)}
}

func (tr *opTrace) since() int64 { return int64(time.Since(tr.epoch)) }

func (tr *opTrace) newNode() *nodeAcc {
	tr.firstBuild.CompareAndSwap(0, tr.since())
	tr.mu.Lock()
	defer tr.mu.Unlock()
	a := &nodeAcc{rng: uint32(len(tr.nodes)+1) * 2654435761}
	tr.nodes = append(tr.nodes, a)
	return a
}

func (tr *opTrace) noteFirstStart() {
	if tr.firstStart.Load() == 0 {
		tr.firstStart.CompareAndSwap(0, tr.since())
	}
}

// stage runs fn as a coarse, exactly timed span under the op root. With a
// nil receiver (untraced ops) it only runs fn.
func (tr *opTrace) stage(name string, fn func() error) error {
	if tr == nil {
		return fn()
	}
	s := span{Name: name, Parent: rootSpan, Op: tr.op, Count: 1, StartNs: tr.since()}
	err := fn()
	s.EndNs = tr.since()
	s.TotalNs = s.EndNs - s.StartNs
	s.SelfNs = s.TotalNs
	tr.mu.Lock()
	tr.stages = append(tr.stages, s)
	tr.mu.Unlock()
	return err
}

// add records an accumulated child of a stage: the sum of many intervals
// that ran concurrently with each other (RPC handlers, workers), so it is
// not taken out of its parent's self time.
func (tr *opTrace) add(name, parent string, count uint64, total time.Duration) {
	tr.mu.Lock()
	tr.stages = append(tr.stages, span{
		Name: name, Parent: parent, Op: tr.op,
		Count: count, TotalNs: int64(total), SelfNs: int64(total),
	})
	tr.mu.Unlock()
}

// count records an exact per-op quantity. With a nil receiver (untraced
// ops) it does nothing.
func (tr *opTrace) count(name string, v float64) {
	if tr != nil {
		tr.counts[name] = v
	}
}

const rootSpan = "optsync.op"

// foldedOp is one traced op reduced to spans plus the per-layer self
// times that the per-layer metrics are made of.
type foldedOp struct {
	Op     int                `json:"op"`
	WallNs int64              `json:"wall_ns"`
	CPUNs  int64              `json:"cpu_ns"`
	Spans  []span             `json:"spans"`
	Counts map[string]float64 `json:"counts,omitempty"`

	// layerNs is self time per layer; by construction the values sum to
	// the op's wall time (CPU time for parallel ops).
	layerNs map[string]int64
	// stageNs is total time per coarse stage name.
	stageNs map[string]int64
	// stageCount is how often a stage or accumulated child occurred.
	stageCount map[string]uint64
}

// fold merges the per-node accumulators and stage spans of a finished op.
func (tr *opTrace) fold() *foldedOp {
	f := &foldedOp{
		Op:         tr.op,
		WallNs:     int64(tr.end.Sub(tr.start)),
		CPUNs:      int64(tr.cpu),
		Counts:     tr.counts,
		layerNs:    make(map[string]int64),
		stageNs:    make(map[string]int64),
		stageCount: make(map[string]uint64),
	}
	total := f.WallNs
	if tr.parallel {
		total = f.CPUNs
	}
	attributed := int64(0)

	// Coarse stages: exact, children of the root.
	for _, s := range tr.stages {
		f.Spans = append(f.Spans, s)
		f.stageNs[s.Name] += s.TotalNs
		f.stageCount[s.Name] += s.Count
		if s.Parent == rootSpan {
			attributed += s.TotalNs
		}
	}

	// Per-message work, merged over nodes.
	var cb [numCallKinds]slot
	var env [numCallKinds][numEnvKinds]slot
	var pulses, useful uint64
	for _, a := range tr.nodes {
		pulses += a.pulses
		useful += a.useful
		for k := range cb {
			cb[k].add(a.cb[k])
			for e := range env[k] {
				env[k][e].add(a.env[k][e])
			}
		}
	}
	if len(tr.nodes) > 0 {
		build := tr.firstStart.Load() - tr.firstBuild.Load()
		if tr.firstStart.Load() == 0 || build < 0 {
			build = 0
		}
		f.Spans = append(f.Spans, span{
			Name: "harness.build", Parent: rootSpan, Op: tr.op, Count: 1,
			StartNs: tr.firstBuild.Load(), EndNs: tr.firstStart.Load(),
			TotalNs: build, SelfNs: build,
		})
		f.layerNs["harness"] = build
		attributed += build

		var sigCount [2]uint64
		var clockCalls uint64
		for k := range cb {
			if cb[k].count == 0 {
				continue
			}
			cbTotal := cb[k].estimate()
			children := int64(0)
			for e := range env[k] {
				s := env[k][e]
				if s.count == 0 {
					continue
				}
				est := s.estimate()
				children += est
				f.Spans = append(f.Spans, span{
					Name: envNames[e], Parent: callNames[k], Op: tr.op,
					Count: s.count, Sampled: s.sampled, TotalNs: est, SelfNs: est,
				})
				switch envKind(e) {
				case envSign:
					f.layerNs["sig"] += est
					sigCount[0] += s.count
				case envVerify:
					f.layerNs["sig"] += est
					sigCount[1] += s.count
				case envBroadcast, envSend:
					f.layerNs["network.send"] += est
				default:
					f.layerNs["clock"] += est
					clockCalls += s.count
				}
			}
			// Sampling error can make the scaled children exceed the
			// scaled callback; the callback's self time is then 0, not
			// negative.
			self := max(cbTotal-children, 0)
			cbTotal = self + children
			f.Spans = append(f.Spans, span{
				Name: callNames[k], Parent: rootSpan, Op: tr.op,
				Count: cb[k].count, Sampled: cb[k].sampled, TotalNs: cbTotal, SelfNs: self,
			})
			f.layerNs["core"] += self
			attributed += cbTotal
		}
		f.Counts["sig.signs"] = float64(sigCount[0])
		f.Counts["sig.verifies"] = float64(sigCount[1])
		f.Counts["clock.calls"] = float64(clockCalls)
		f.Counts["core.delivers"] = float64(cb[cbDeliver].count)
		f.Counts["core.useful_delivers"] = float64(useful)
		f.Counts["core.pulses"] = float64(pulses)
	}

	// The remainder: event queue, network delivery, metrics, and for
	// staged ops the gaps between stages.
	rest := total - attributed
	f.layerNs["sim.rest"] = rest
	f.Spans = append(f.Spans, span{
		Name: rootSpan, Op: tr.op, Count: 1,
		StartNs: int64(tr.start.Sub(tr.epoch)), EndNs: int64(tr.end.Sub(tr.epoch)),
		TotalNs: total, SelfNs: rest,
	})
	return f
}
