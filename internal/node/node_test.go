package node

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"optsync/internal/clock"
	"optsync/internal/network"
	"optsync/internal/probe"
	"optsync/internal/sig"
)

// echoProto broadcasts one message at boot and counts deliveries.
type echoProto struct {
	started   bool
	delivered []ID
	payloads  []Message
}

func (p *echoProto) Start(env Env) {
	p.started = true
	env.Broadcast(network.Raw("hi"))
}

func (p *echoProto) Deliver(_ Env, from ID, msg Message) {
	p.delivered = append(p.delivered, from)
	p.payloads = append(p.payloads, msg)
}

func newEchoCluster(n int) (*Cluster, []*echoProto) {
	protos := make([]*echoProto, n)
	c := NewCluster(Config{
		N:     n,
		F:     (n - 1) / 3,
		Seed:  1,
		Rho:   clock.Rho(0.001),
		Delay: network.Fixed{D: 0.01},
		Protocols: func(i int) Protocol {
			protos[i] = &echoProto{}
			return protos[i]
		},
	})
	return c, protos
}

func TestClusterBootAndBroadcast(t *testing.T) {
	c, protos := newEchoCluster(3)
	c.Start()
	c.Run(1)
	for i, p := range protos {
		if !p.started {
			t.Fatalf("node %d not started", i)
		}
		if len(p.delivered) != 3 {
			t.Fatalf("node %d delivered %d messages, want 3", i, len(p.delivered))
		}
	}
}

func TestLogicalTimeAndSetLogical(t *testing.T) {
	c := NewCluster(Config{
		N: 1, F: 0, Seed: 1,
		Protocols: func(i int) Protocol { return protoFunc{} },
	})
	c.Start()
	c.Run(5)
	nd := c.Nodes[0]
	if got := nd.LogicalTime(); got != 5 {
		t.Fatalf("LogicalTime = %v, want 5 (perfect default clock)", got)
	}
	nd.SetLogical(100)
	if got := nd.LogicalTime(); got != 100 {
		t.Fatalf("LogicalTime after SetLogical = %v", got)
	}
	if got := c.ReadLogical(0); got != 100 {
		t.Fatalf("ReadLogical = %v", got)
	}
	if nd.HardwareTime() != 5 {
		t.Fatalf("HardwareTime = %v, want 5", nd.HardwareTime())
	}
	if nd.RealTime() != 5 {
		t.Fatalf("RealTime = %v, want 5", nd.RealTime())
	}
}

type protoFunc struct{}

func (protoFunc) Start(Env)                {}
func (protoFunc) Deliver(Env, ID, Message) {}

func TestAtLogicalFiresAtValue(t *testing.T) {
	c := NewCluster(Config{
		N: 1, F: 0, Seed: 1,
		Rho:       clock.Rho(0.5),
		Protocols: func(int) Protocol { return protoFunc{} },
	})
	c.Start()
	c.Run(0)
	nd := c.Nodes[0]
	var fired float64 = -1
	nd.AtLogical(2.5, func() { fired = c.Engine.Now() })
	c.Run(10)
	if fired != 2.5 {
		t.Fatalf("timer fired at %v, want 2.5", fired)
	}
	// Past values fire immediately (not in the past).
	fired = -1
	nd.AtLogical(1.0, func() { fired = c.Engine.Now() })
	c.Run(20)
	if fired != 10 {
		t.Fatalf("past-value timer fired at %v, want now=10", fired)
	}
}

func TestAtLogicalWithDriftingClock(t *testing.T) {
	rho := clock.Rho(1)
	c2 := NewCluster(Config{
		N: 1, F: 0, Seed: 1, Rho: rho,
		Clocks: func(int, *rand.Rand) *clock.Hardware {
			return clock.NewConstant(0, 2, rho)
		},
		Protocols: func(int) Protocol { return protoFunc{} },
	})
	c2.Start()
	var fired float64 = -1
	c2.Nodes[0].AtLogical(4, func() { fired = c2.Engine.Now() })
	c2.Run(10)
	if math.Abs(fired-2) > 1e-12 {
		t.Fatalf("rate-2 clock timer fired at %v, want 2", fired)
	}
}

func TestCancelTimer(t *testing.T) {
	c, _ := newEchoCluster(1)
	c.Start()
	c.Run(0)
	fired := false
	tm := c.Nodes[0].AtLogical(0.5, func() { fired = true })
	c.Nodes[0].Cancel(tm)
	c.Nodes[0].Cancel(nil) // nil-safe
	c.Run(2)
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestDelayedStartDropsEarlyTraffic(t *testing.T) {
	protos := make([]*echoProto, 2)
	c := NewCluster(Config{
		N: 2, F: 0, Seed: 1,
		Delay: network.Fixed{D: 0.01},
		Protocols: func(i int) Protocol {
			protos[i] = &echoProto{}
			return protos[i]
		},
		StartAt: map[int]float64{1: 5.0},
	})
	c.Start()
	c.Run(10)
	// Node 1 boots at t=5; node 0's boot broadcast (delivered t=0.01) is lost.
	// Node 1's own boot broadcast at t=5 reaches both.
	if len(protos[0].delivered) != 2 { // own echo + node1's echo
		t.Fatalf("node 0 delivered %d, want 2", len(protos[0].delivered))
	}
	if len(protos[1].delivered) != 1 { // only its own echo
		t.Fatalf("node 1 delivered %d, want 1", len(protos[1].delivered))
	}
}

func TestPulseRecording(t *testing.T) {
	c, _ := newEchoCluster(2)
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(1)
	var observed []probe.Event
	c.Engine.Probes().Attach(probe.Func(func(ev probe.Event) { observed = append(observed, ev) }), probe.TypePulse)
	c.Nodes[0].Pulse(3)
	c.Nodes[1].Pulse(3)
	if len(pulseLog.Records) != 2 || len(observed) != 2 {
		t.Fatalf("pulses = %d observed = %d", len(pulseLog.Records), len(observed))
	}
	r := pulseLog.Records[0]
	if r.Node != 0 || r.Round != 3 || r.Real != 1 {
		t.Fatalf("record = %+v", r)
	}
	// The probe stream carries the same record, as it happens.
	if ev := observed[0]; ev.From != 0 || ev.Round != 3 || ev.T != r.Real || ev.Value != r.Logical {
		t.Fatalf("pulse event = %+v, record = %+v", ev, r)
	}
}

func TestSignVerifyThroughEnv(t *testing.T) {
	c, _ := newEchoCluster(3)
	c.Start()
	c.Run(0)
	payload := []byte("round 1")
	s := c.Nodes[0].Sign(payload)
	if !c.Nodes[1].Verify(0, payload, s) {
		t.Fatal("peer failed to verify signature")
	}
	if c.Nodes[1].Verify(2, payload, s) {
		t.Fatal("signature verified for wrong signer")
	}
}

// TestOneMemoPerEngine: a memo is plain memory, so no two goroutines may
// share one. A serial cluster has one for all its nodes; a sharded cluster
// has one per shard, a node checks signatures through its own shard's, and
// the cluster's counters are their sum.
func TestOneMemoPerEngine(t *testing.T) {
	proto := func(int) Protocol { return protoFunc{} }
	serial := NewCluster(Config{N: 4, Protocols: proto})
	if len(serial.memos) != 1 {
		t.Fatalf("serial cluster built %d memos, want 1", len(serial.memos))
	}
	sharded := NewCluster(Config{N: 4, Protocols: proto, Shards: 2, Lookahead: 0.001})
	defer sharded.Close()
	if sharded.Shards() != 2 || len(sharded.memos) != 2 || sharded.memos[0] == sharded.memos[1] {
		t.Fatalf("2-shard cluster (%d shards) built memos %v, want two distinct", sharded.Shards(), sharded.memos)
	}
	for _, c := range []*Cluster{serial, sharded} {
		payload := []byte("round 1")
		s := c.Nodes[0].Sign(payload)
		for _, nd := range c.Nodes {
			if !nd.Verify(0, payload, s) || nd.Verify(1, payload, s) {
				t.Fatalf("node %d: wrong answer", nd.id)
			}
		}
		// Each memo computes the valid triple once and the forgery every time.
		want := sig.MemoStats{Asked: 8, Computed: 4 + uint64(len(c.memos)), Rejected: 4}
		if got := c.RuntimeStats().Sig; got != want {
			t.Fatalf("%d shards: sig counters %+v, want %+v", c.Shards(), got, want)
		}
	}
}

// TestRuntimeStatsCountOneEngineOnce: at one shard the cluster's Engine is
// shard 0's, so its queue counters are summed once, not twice.
func TestRuntimeStatsCountOneEngineOnce(t *testing.T) {
	c, _ := newEchoCluster(3)
	c.Start()
	c.Run(1)
	if l := c.Engine.LadderStats(); l.Timers == 0 || l.Seals == 0 || c.RuntimeStats().Ladder != l {
		t.Fatalf("one-shard cluster: runtime ladder counters %+v, the engine's %+v", c.RuntimeStats().Ladder, l)
	}
}

func TestSkewComputation(t *testing.T) {
	c, _ := newEchoCluster(3)
	c.Start()
	c.Run(1)
	c.Nodes[0].SetLogical(10)
	c.Nodes[1].SetLogical(12)
	c.Nodes[2].SetLogical(11)
	if got := c.Skew([]ID{0, 1, 2}); got != 2 {
		t.Fatalf("Skew = %v, want 2", got)
	}
	if got := c.Skew(nil); got != 0 {
		t.Fatalf("Skew(nil) = %v", got)
	}
}

func TestCorrectIDsExcludesFaultyAndUnbooted(t *testing.T) {
	c := NewCluster(Config{
		N: 4, F: 1, Seed: 1,
		Protocols: func(int) Protocol { return protoFunc{} },
		Faulty:    map[int]bool{2: true},
		StartAt:   map[int]float64{3: 100},
	})
	c.Start()
	c.Run(1)
	ids := c.CorrectIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("CorrectIDs = %v", ids)
	}
	if !c.Nodes[2].Faulty() || c.Nodes[2].Started() == false {
		t.Fatalf("node 2 flags wrong")
	}
	if c.Nodes[3].Started() {
		t.Fatal("node 3 should not have started")
	}
}

func TestEnvAccessors(t *testing.T) {
	c, _ := newEchoCluster(3)
	c.Start()
	c.Run(0.5)
	nd := c.Nodes[1]
	if nd.ID() != 1 || nd.N() != 3 || nd.F() != 0 {
		t.Fatalf("accessors: id=%d n=%d f=%d", nd.ID(), nd.N(), nd.F())
	}
	if nd.Clock() == nil || nd.Protocol() == nil {
		t.Fatal("nil accessor")
	}
	// Direct send delivers.
	got := false
	c.Nodes[2].net.Register(2, func(from ID, msg Message) { got = from == 1 && msg.Payload == "direct" })
	nd.Send(2, network.Raw("direct"))
	c.Run(1)
	if !got {
		t.Fatal("Send did not deliver")
	}
}

// A foreign timer handle is a simulation error: it reaches the engine's
// Trap like any other, and panics only when none is installed.
func TestCancelForeignHandlePanics(t *testing.T) {
	c, _ := newEchoCluster(1)
	c.Start()
	var trapped string
	c.Engine.Trap = func(format string, args ...any) { trapped = fmt.Sprintf(format, args...) }
	c.Nodes[0].Cancel("not a timer")
	if !strings.Contains(trapped, "foreign timer handle string") {
		t.Fatalf("trap got %q", trapped)
	}
	c.Engine.Trap = nil
	defer func() {
		if recover() == nil {
			t.Fatal("foreign timer handle accepted")
		}
	}()
	c.Nodes[0].Cancel("not a timer")
}

// A protocol asking for logical +Inf gets the engine's Trap, as the
// comment in AtLogical promises, on a walking clock too: inverting +Inf
// draws no segment.
func TestAtLogicalInfinityReachesTrap(t *testing.T) {
	rho := clock.Rho(1e-4)
	c := NewCluster(Config{
		N: 1, F: 0, Seed: 1, Rho: rho,
		Clocks: func(_ int, rng *rand.Rand) *clock.Hardware {
			return clock.NewHardware(0, rho, clock.RandomWalk{Rho: rho, MinDur: 0.1, MaxDur: 1}, rng)
		},
		Protocols: func(int) Protocol { return protoFunc{} },
	})
	c.Start()
	c.Run(1)
	trapped := make(chan string, 1)
	c.Engine.Trap = func(format string, args ...any) { trapped <- fmt.Sprintf(format, args...) }
	go c.Nodes[0].AtLogical(math.Inf(1), func() {})
	select {
	case msg := <-trapped:
		if !strings.Contains(msg, "unschedulable instant +Inf") {
			t.Fatalf("trap got %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AtLogical(+Inf) did not reach the trap within 5 s")
	}
}

func TestClusterSlewRateOption(t *testing.T) {
	c := NewCluster(Config{
		N: 1, F: 0, Seed: 1,
		SlewRate:  0.1,
		Protocols: func(int) Protocol { return protoFunc{} },
	})
	c.Start()
	c.Run(1)
	nd := c.Nodes[0]
	nd.SetLogical(2) // +1: slews over 10 local units
	if got := nd.LogicalTime(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("slewed clock jumped: %v", got)
	}
	c.Run(12)
	if got := nd.LogicalTime(); math.Abs(got-13) > 1e-9 {
		t.Fatalf("slew did not complete: %v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero N":       {N: 0, Protocols: func(int) Protocol { return protoFunc{} }},
		"nil protocol": {N: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NewCluster did not panic", name)
				}
			}()
			NewCluster(cfg)
		}()
	}
}

// TestClusterProbeEvents pins the node-layer event stream: boots (with
// late-joiner times), pulses (round + logical value), and resyncs
// (old/new readings) all reach the engine bus.
func TestClusterProbeEvents(t *testing.T) {
	c := NewCluster(Config{
		N: 2, F: 0, Seed: 1,
		Protocols: func(int) Protocol { return protoFunc{} },
		StartAt:   map[int]float64{1: 2.5},
	})
	var boots, pulses, resyncs []probe.Event
	c.Engine.Probes().Attach(probe.Func(func(ev probe.Event) {
		switch ev.Type {
		case probe.TypeNodeBoot:
			boots = append(boots, ev)
		case probe.TypePulse:
			pulses = append(pulses, ev)
		case probe.TypeResync:
			resyncs = append(resyncs, ev)
		}
	}), probe.TypeNodeBoot, probe.TypePulse, probe.TypeResync)
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(1)
	c.Nodes[0].Pulse(3)
	c.Nodes[0].SetLogical(7.5)
	c.Run(3)

	if len(boots) != 2 || boots[0].From != 0 || boots[0].T != 0 ||
		boots[1].From != 1 || boots[1].T != 2.5 {
		t.Fatalf("boot events = %+v", boots)
	}
	if len(pulses) != 1 || pulses[0].From != 0 || pulses[0].Round != 3 ||
		pulses[0].T != 1 || pulses[0].Value != 1 {
		t.Fatalf("pulse events = %+v", pulses)
	}
	if len(resyncs) != 1 || resyncs[0].From != 0 ||
		resyncs[0].Value != 7.5 || resyncs[0].Aux != 1 {
		t.Fatalf("resync events = %+v", resyncs)
	}
	// The cluster log and the event stream must agree.
	if len(pulseLog.Records) != 1 || pulseLog.Records[0].Round != 3 {
		t.Fatalf("cluster pulses = %+v", pulseLog.Records)
	}
}

// deafProto broadcasts at boot and claims to ignore every message, yet
// records what is dispatched to it: what a deaf node would be handed.
type deafProto struct{ echoProto }

func (*deafProto) DeafFrom() float64 { return 0 }

// TestDeafDeliveriesAreCountedNotQueued: a delivery to a deaf node strictly
// after its boot is counted, not dispatched, and the traffic counters are
// those of the run that queues it (a message_delivered probe attached) at
// every Run boundary. Nodes 1 and 2 are deaf, node 1 booting at 0.5, which
// is exactly when the boot broadcasts of nodes 0 and 2 land: node 0's copy
// orders before node 1's boot and is dropped offline, node 2's after it and
// is delivered, both through the queue. The other four copies to a deaf
// node are counted.
func TestDeafDeliveriesAreCountedNotQueued(t *testing.T) {
	build := func() (*Cluster, []*deafProto) {
		protos := make([]*deafProto, 3)
		c := NewCluster(Config{
			N: 3, F: 0, Seed: 1,
			Delay: network.Fixed{D: 0.5},
			Protocols: func(i int) Protocol {
				protos[i] = &deafProto{}
				if i == 0 {
					return &protos[i].echoProto
				}
				return protos[i]
			},
			StartAt: map[int]float64{1: 0.5},
		})
		return c, protos
	}
	counted, cp := build()
	queued, qp := build()
	var delivered int
	queued.Engine.Probes().Attach(probe.Func(func(probe.Event) { delivered++ }), probe.TypeMessageDelivered)
	counted.Start()
	queued.Start()
	for _, until := range []float64{0.25, 0.5, 0.75, 1, 2} {
		counted.Run(until)
		queued.Run(until)
		if got, want := counted.NetStats(), queued.NetStats(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("t=%v: counted %+v, queued %+v", until, got, want)
		}
	}
	if s := counted.NetStats(); s.Sent != 9 || s.Delivered != 8 || s.DroppedOffline != 1 || delivered != 8 {
		t.Errorf("stats %+v and %d message_delivered events, want 9 sent, 8 delivered, 1 dropped offline", s, delivered)
	}
	if d, q := counted.RuntimeStats().Arena.Deaf, queued.RuntimeStats().Arena.Deaf; d != 4 || q != 0 {
		t.Errorf("deaf counts %d counted, %d queued, want 4 and 0", d, q)
	}
	if got := cp[1].delivered; len(got) != 1 || got[0] != 2 || len(cp[2].delivered) != 0 {
		t.Errorf("deaf nodes were handed %v and %v, want node 2's boot copy at node 1's boot instant only", got, cp[2].delivered)
	}
	if len(qp[1].delivered) != 2 || len(qp[2].delivered) != 3 {
		t.Errorf("queued run handed the deaf nodes %v and %v", qp[1].delivered, qp[2].delivered)
	}
}
