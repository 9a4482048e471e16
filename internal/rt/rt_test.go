package rt

import (
	"runtime"
	"testing"
	"time"

	"optsync/internal/clock"
	"optsync/internal/core"
	"optsync/internal/core/bounds"
	"optsync/internal/node"
)

// rtParams: generous margins so OS scheduling jitter (typically well under
// a millisecond) is negligible against the 20-50 ms delay window.
func rtParams() bounds.Params {
	return bounds.Params{
		N: 4, F: 1, Variant: bounds.Auth,
		Rho:  clock.Rho(0.01), // 1% synthetic drift: visible within seconds
		DMin: 0.020, DMax: 0.050,
		Period:      0.25,
		InitialSkew: 0.02,
	}.WithDefaults()
}

func TestRealTimeAuthSynchronizes(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	p := rtParams()
	cfg := core.ConfigFromBounds(p)
	c := New(Config{
		N: p.N, F: p.F, Seed: 5,
		Rho:       p.Rho,
		MaxOffset: p.InitialSkew,
		DelayMin:  time.Duration(p.DMin * float64(time.Second)),
		DelayMax:  time.Duration(p.DMax * float64(time.Second)),
		Protocols: func(i int) node.Protocol { return core.NewAuth(cfg) },
	})
	c.Start()
	defer c.Stop()

	ids := []node.ID{0, 1, 2, 3}
	deadline := time.After(3 * time.Second)
	maxSkew := 0.0
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			if s := c.Skew(ids); s > maxSkew {
				maxSkew = s
			}
		}
	}
	// Sampling is not instantaneous across nodes; allow one extra delay of
	// slack on top of the analytic bound.
	limit := p.DmaxWithStart() + p.DMax
	if maxSkew > limit {
		t.Fatalf("real-time skew %v exceeds %v", maxSkew, limit)
	}
	pulses := c.Pulses()
	if len(pulses) == 0 {
		t.Fatal("no pulses in 3 s of real time")
	}
	// Every node pulsed, rounds monotone per node.
	lastRound := map[node.ID]int{}
	seen := map[node.ID]bool{}
	for _, rec := range pulses {
		seen[rec.Node] = true
		if rec.Round <= lastRound[rec.Node] {
			t.Fatalf("node %d rounds not monotone: %d after %d", rec.Node, rec.Round, lastRound[rec.Node])
		}
		lastRound[rec.Node] = rec.Round
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("node %d never pulsed", id)
		}
	}
}

func TestRealTimePrimitive(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	p := rtParams()
	p.Variant = bounds.Primitive
	p = p.WithDefaults()
	cfg := core.ConfigFromBounds(p)
	c := New(Config{
		N: p.N, F: p.F, Seed: 6,
		Rho:       p.Rho,
		MaxOffset: p.InitialSkew,
		DelayMin:  time.Duration(p.DMin * float64(time.Second)),
		DelayMax:  time.Duration(p.DMax * float64(time.Second)),
		Protocols: func(i int) node.Protocol { return core.NewPrimitive(cfg) },
	})
	c.Start()
	defer c.Stop()
	time.Sleep(2 * time.Second)
	if len(c.Pulses()) == 0 {
		t.Fatal("no primitive pulses in 2 s of real time")
	}
}

func TestRealTimeStopIsIdempotent(t *testing.T) {
	p := rtParams()
	cfg := core.ConfigFromBounds(p)
	c := New(Config{
		N: p.N, F: p.F, Seed: 7,
		Rho:       p.Rho,
		Protocols: func(i int) node.Protocol { return core.NewAuth(cfg) },
	})
	c.Start()
	c.Stop()
	c.Stop() // double stop must not panic
	_ = c.ReadLogical(0)
}

func TestRealTimeConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config accepted")
		}
	}()
	New(Config{N: 0})
}

type startFunc func(node.Env)

func (f startFunc) Start(env node.Env)                    { f(env) }
func (startFunc) Deliver(node.Env, node.ID, node.Message) {}

// TestCancelIsExactAfterFire cancels a timer that has already fired into
// the inbox and sits there behind the running callback: it must not run.
// core.AuthProtocol binds one callback that reads the round due from a
// field, so a stale fire would sign the next round a period early.
func TestCancelIsExactAfterFire(t *testing.T) {
	ran := make(chan struct{}, 1)
	done := make(chan struct{})
	c := New(Config{N: 1, Protocols: func(int) node.Protocol {
		return startFunc(func(env node.Env) {
			nd := env.(*rtNode)
			tm := env.AtLogical(env.LogicalTime(), func() { ran <- struct{}{} })
			for len(nd.inbox) == 0 {
				runtime.Gosched()
			}
			env.Cancel(tm)
			nd.post(func() { close(done) })
		})
	}})
	c.Start()
	defer c.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("node loop never reached the marker posted after the cancelled timer")
	}
	select {
	case <-ran:
		t.Fatal("cancelled timer ran")
	default:
	}
}
