package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"optsync"
	"optsync/internal/campaign"
	"optsync/internal/core"
	"optsync/internal/fabric"
	"optsync/internal/harness"
	"optsync/internal/network"
	"optsync/internal/node"
	"optsync/internal/probe"
	"optsync/internal/sig"
	"optsync/internal/sim"
	"optsync/internal/tracelake"
)

// Layer drivers: tight loops over each layer's exported functions with
// inputs shaped like the workloads', reporting time per unit of work and
// allocations. They say what a layer costs in isolation; the traced pass
// says how much of an op it is.

// driverConfig sizes the drivers.
type driverConfig struct {
	// budget is the time each driver loop measures for (it always runs at
	// least one lap).
	budget time.Duration
	// small shrinks every fixture to smoke-test size.
	small bool
	// tmpRoot is where store and lake fixtures live.
	tmpRoot string
}

func (c driverConfig) pick(full, small int) int {
	if c.small {
		return small
	}
	return full
}

// lap is one timed stretch of a driver loop.
type lap struct {
	ops    int
	ns     int64
	allocs uint64
}

func (l *lap) add(o lap) {
	l.ops += o.ops
	l.ns += o.ns
	l.allocs += o.allocs
}

func (l lap) nsPerOp() float64 { return float64(l.ns) / float64(max(l.ops, 1)) }

func (l lap) allocsPerOp() float64 { return float64(l.allocs) / float64(max(l.ops, 1)) }

// timed measures fn as ops operations.
func timed(ops int, fn func()) lap {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	ns := int64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	return lap{ops: ops, ns: ns, allocs: m1.Mallocs - m0.Mallocs}
}

// repeat runs one — which does its own untimed preparation and returns
// the timed part — until the budget has passed, and sums the laps.
func (c driverConfig) repeat(one func() lap) lap {
	var sum lap
	deadline := time.Now().Add(c.budget)
	for {
		sum.add(one())
		if !time.Now().Before(deadline) {
			return sum
		}
	}
}

// runLayerDrivers runs every driver and returns the driver-sourced
// per-layer metrics by name.
func runLayerDrivers(cfg driverConfig) (map[string]float64, error) {
	m := make(map[string]float64)
	driveSig(cfg, m)
	driveCore(cfg, m)
	driveNetwork(cfg, m)
	driveSim(cfg, m)
	driveProbe(cfg, m)
	for _, d := range []func(driverConfig, map[string]float64) error{
		driveHarness, driveTracelake, driveCampaign, driveFabric,
	} {
		if err := d(cfg, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// --- sig ---

func driveSig(cfg driverConfig, m map[string]float64) {
	// A 25-key ring and the real round payload, as mesh25-auth signs.
	const keys = 25
	payload := core.RoundPayload(1)
	for _, s := range []struct {
		name   string
		scheme sig.Scheme
		batch  int
	}{
		{"hmac", sig.NewHMAC(keys, 1), 2000},
		{"ed25519", sig.NewEd25519(keys, 1), 50},
	} {
		batch := cfg.pick(s.batch, 10)
		sigs := make([]sig.Signature, keys)
		sign := cfg.repeat(func() lap {
			return timed(batch, func() {
				for i := 0; i < batch; i++ {
					sigs[i%keys] = s.scheme.Sign(i%keys, payload)
				}
			})
		})
		for k := range sigs {
			sigs[k] = s.scheme.Sign(k, payload)
		}
		verify := cfg.repeat(func() lap {
			return timed(batch, func() {
				for i := 0; i < batch; i++ {
					if !s.scheme.Verify(i%keys, payload, sigs[i%keys]) {
						panic("bench: " + s.name + " rejected its own signature")
					}
				}
			})
		})
		m["sig."+s.name+"_sign_ns"] = sign.nsPerOp()
		m["sig."+s.name+"_verify_ns"] = verify.nsPerOp()
		if s.name == "hmac" {
			m["sig.hmac_sign_allocs"] = sign.allocsPerOp()
			m["sig.hmac_verify_allocs"] = verify.allocsPerOp()
		}
	}
}

// --- core ---

// stubEnv is a node.Env with real signatures and nothing else: sends are
// dropped, timers never fire. It isolates the protocol's own work.
type stubEnv struct {
	id, n, f int
	scheme   sig.Scheme
	logical  float64
	rng      *rand.Rand
}

var _ node.Env = (*stubEnv)(nil)

func (e *stubEnv) ID() node.ID                          { return e.id }
func (e *stubEnv) N() int                               { return e.n }
func (e *stubEnv) F() int                               { return e.f }
func (e *stubEnv) LogicalTime() float64                 { return e.logical }
func (e *stubEnv) HardwareTime() float64                { return e.logical }
func (e *stubEnv) SetLogical(v float64)                 { e.logical = v }
func (e *stubEnv) AtLogical(float64, func()) node.Timer { return nil }
func (e *stubEnv) Cancel(node.Timer)                    {}
func (e *stubEnv) Send(node.ID, node.Message)           {}
func (e *stubEnv) Broadcast(node.Message)               {}
func (e *stubEnv) Sign(p []byte) sig.Signature          { return e.scheme.Sign(e.id, p) }
func (e *stubEnv) Pulse(int)                            {}
func (e *stubEnv) Rand() *rand.Rand                     { return e.rng }
func (e *stubEnv) RealTime() float64                    { return e.logical }
func (e *stubEnv) Verify(s node.ID, p []byte, g sig.Signature) bool {
	return e.scheme.Verify(s, p, g)
}

func driveCore(cfg driverConfig, m map[string]float64) {
	// Authenticated: every Deliver carries a fresh round's full 13-entry
	// evidence (f+1 for n=25), so it verifies 13 signatures and accepts.
	{
		const n, f = 25, 12
		env := &stubEnv{id: 0, n: n, f: f, scheme: sig.NewHMAC(n, 1), rng: rand.New(rand.NewSource(1))}
		p := core.NewAuth(core.ConfigFromBounds(lanParams(n, f, optsync.Auth)))
		p.Start(env)
		round := 0
		rounds := cfg.pick(256, 4)
		l := cfg.repeat(func() lap {
			msgs := make([]node.Message, rounds)
			for r := range msgs {
				round++
				payload := core.RoundPayload(round)
				entries := make([]core.SignedEntry, f+1)
				for s := range entries {
					entries[s] = core.SignedEntry{Signer: s + 1, Sig: env.scheme.Sign(s+1, payload)}
				}
				msgs[r] = core.RoundMessage(round, entries)
			}
			return timed(rounds, func() {
				for _, msg := range msgs {
					p.Deliver(env, 1, msg)
				}
			})
		})
		if p.LastAccepted() != round {
			panic(fmt.Sprintf("bench: auth driver accepted %d of %d rounds", p.LastAccepted(), round))
		}
		m["core.auth_deliver_ns"] = l.nsPerOp()
		m["core.auth_deliver_allocs"] = l.allocsPerOp()
	}
	// Primitive: 2f+1 scalar readies per round at n=256; the f+1-th makes
	// the process join, the last one makes it accept.
	{
		const n, f = 256, 85
		env := &stubEnv{id: 0, n: n, f: f, rng: rand.New(rand.NewSource(1))}
		p := core.NewPrimitive(core.ConfigFromBounds(lanParams(n, f, optsync.Primitive)))
		p.Start(env)
		round := 0
		rounds := cfg.pick(16, 2)
		l := cfg.repeat(func() lap {
			return timed(rounds*(2*f+1), func() {
				for r := 0; r < rounds; r++ {
					round++
					msg := core.ReadyMessage(round)
					for from := 1; from <= 2*f+1; from++ {
						p.Deliver(env, from, msg)
					}
				}
			})
		})
		if p.LastAccepted() != round {
			panic(fmt.Sprintf("bench: primitive driver accepted %d of %d rounds", p.LastAccepted(), round))
		}
		m["core.prim_deliver_ns"] = l.nsPerOp()
		m["core.prim_deliver_allocs"] = l.allocsPerOp()
	}
}

// --- network and sim ---

var driverKind = network.NewKind("bench/pulse")

var lanDelay = network.Uniform{Min: 0.002, Max: 0.010}

// pulseNet is n nodes on one engine; a round is every node broadcasting
// once and the engine draining every delivery.
type pulseNet struct {
	eng *sim.Engine
	nt  *network.Net
	n   int
}

func newPulseNet(n int) *pulseNet {
	e := sim.New(1)
	nt := network.New(e, n, lanDelay, nil)
	for i := 0; i < n; i++ {
		nt.Register(i, func(node.ID, network.Message) {})
	}
	return &pulseNet{eng: e, nt: nt, n: n}
}

func (p *pulseNet) round(msg network.Message) {
	for from := 0; from < p.n; from++ {
		p.nt.Broadcast(from, msg)
	}
	p.eng.RunAll(0)
}

// warm brings buckets, arenas and scratch to steady-state capacity: one
// double-fan round, then a few plain ones.
func (p *pulseNet) warm(msg network.Message) {
	for from := 0; from < p.n; from++ {
		p.nt.Broadcast(from, msg)
		p.nt.Broadcast(from, msg)
	}
	p.eng.RunAll(0)
	for i := 0; i < 3; i++ {
		p.round(msg)
	}
}

// shardedPulse is the same round on the conservative parallel engine: n
// nodes striped over k shards, one kick event per node per round.
type shardedPulse struct {
	coord *sim.Shards
	engs  []*sim.Engine
	tgt   []int
	owner []int32
	n     int
	at    int
}

type shardKick struct {
	eng *sim.Engine
	nt  *network.Net
}

func (k *shardKick) Dispatch(_ sim.Time, msg sim.Message) {
	k.eng.SetExecLane(msg.From)
	k.nt.Broadcast(int(msg.From), network.Message{Kind: driverKind, Round: int(msg.Round)})
}

func newShardedPulse(n, k int) *shardedPulse {
	coord := sim.NewShards(1, k, lanDelay.Min)
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = int32(i * k / n)
	}
	nets := network.NewSharded(coord, n, lanDelay, nil, owner)
	for _, nt := range nets {
		for i := 0; i < n; i++ {
			nt.Register(i, func(node.ID, network.Message) {})
		}
	}
	f := &shardedPulse{coord: coord, owner: owner, n: n}
	for i := 0; i < k; i++ {
		eng := coord.Shard(i)
		f.engs = append(f.engs, eng)
		f.tgt = append(f.tgt, eng.RegisterDispatcher(&shardKick{eng: eng, nt: nets[i]}))
	}
	f.round(2)
	for i := 0; i < 3; i++ {
		f.round(1)
	}
	return f
}

func (f *shardedPulse) round(fan int) {
	f.at++
	at := float64(f.at)
	for from := 0; from < f.n; from++ {
		sh := f.owner[from]
		for c := 0; c < fan; c++ {
			f.engs[sh].ScheduleMsg(
				sim.Key{At: at, Cause: at, Lane: int32(from), Seq: uint32(c)},
				f.tgt[sh],
				sim.Message{From: int32(from), Round: int32(f.at)},
			)
		}
	}
	f.coord.Drain()
}

func driveNetwork(cfg driverConfig, m map[string]float64) {
	// Inline: scalar envelopes at mesh256-prim's width.
	{
		n := cfg.pick(256, 16)
		p := newPulseNet(n)
		msg := network.Message{Kind: driverKind}
		p.warm(msg)
		l := cfg.repeat(func() lap {
			msg.Round++
			return timed(n*n, func() { p.round(msg) })
		})
		m["network.bcast_inline_ns_per_msg"] = l.nsPerOp()
		m["network.bcast_allocs_per_round"] = float64(l.allocs) / (float64(l.ops) / float64(n*n))
	}
	// Payload: a 13-entry evidence set at mesh25-auth's width, through the
	// payload arena.
	{
		const n = 25
		p := newPulseNet(n)
		entries := make([]core.SignedEntry, 13)
		msg := core.RoundMessage(0, entries)
		p.warm(msg)
		rounds := cfg.pick(32, 2)
		l := cfg.repeat(func() lap {
			return timed(rounds*n*n, func() {
				for r := 0; r < rounds; r++ {
					msg.Round++
					p.round(msg)
				}
			})
		})
		m["network.bcast_payload_ns_per_msg"] = l.nsPerOp()
	}
	// Sharded: the same scalar round through k = GOMAXPROCS shards, and
	// through one shard of the same machinery for the speed-up's base.
	{
		n := cfg.pick(512, 32)
		k := runtime.GOMAXPROCS(0)
		perMsg := func(k int) float64 {
			f := newShardedPulse(n, k)
			defer f.coord.Close()
			l := cfg.repeat(func() lap { return timed(n*n, func() { f.round(1) }) })
			return l.nsPerOp()
		}
		one := perMsg(1)
		many := one
		if k > 1 {
			many = perMsg(k)
		}
		m["network.bcast_sharded_ns_per_msg"] = many
		m["sim.shards_speedup"] = one / many
	}
}

type nopDispatcher struct{}

func (nopDispatcher) Dispatch(sim.Time, sim.Message) {}

func driveSim(cfg driverConfig, m map[string]float64) {
	// Message events: schedule a LAN-shaped spread of deliveries, then
	// step through them — the ladder's push and pop together.
	{
		events := cfg.pick(1_000_000, 10_000)
		e := sim.New(1)
		target := e.RegisterDispatcher(nopDispatcher{})
		rng := rand.New(rand.NewSource(1))
		delays := make([]float64, 4096)
		for i := range delays {
			delays[i] = lanDelay.Min + rng.Float64()*(lanDelay.Max-lanDelay.Min)
		}
		burst := func() {
			now := e.Now()
			for i := 0; i < events; i++ {
				e.MustAtMsg(now+delays[i%len(delays)], target, sim.Message{Index: uint32(i)})
			}
			e.RunAll(0)
		}
		burst() // bucket capacity reaches its high-water mark
		l := cfg.repeat(func() lap { return timed(events, burst) })
		m["sim.msg_ns_per_event"] = l.nsPerOp()
		m["sim.msg_allocs_per_event"] = l.allocsPerOp()
	}
	// Timer events: a chain of closures, each scheduling the next.
	{
		events := cfg.pick(200_000, 2_000)
		e := sim.New(1)
		l := cfg.repeat(func() lap {
			left := events
			var tick func()
			tick = func() {
				if left--; left > 0 {
					e.MustAfter(0.001, tick)
				}
			}
			return timed(events, func() {
				e.MustAfter(0.001, tick)
				e.RunAll(0)
			})
		})
		m["sim.timer_ns_per_event"] = l.nsPerOp()
	}
}

// --- probe ---

type countingProbe struct{ n uint64 }

func (p *countingProbe) OnEvent(probe.Event) { p.n++ }

func driveProbe(cfg driverConfig, m map[string]float64) {
	batch := cfg.pick(100_000, 1_000)
	// The event mix of a recorded run: mostly message traffic, the odd
	// skew sample.
	events := make([]probe.Event, 64)
	for i := range events {
		events[i] = probe.Event{Type: probe.TypeMessageDelivered, From: int32(i % 32), To: int32((i + 1) % 32), Round: int32(i), T: float64(i)}
		if i%2 == 0 {
			events[i].Type = probe.TypeMessageSent
		}
	}
	events[63] = probe.Event{Type: probe.TypeSkewSample, From: -1, To: -1, Round: 17, T: 1, Value: 0.004}
	emit := func(bus *probe.Bus) lap {
		return cfg.repeat(func() lap {
			return timed(batch, func() {
				for i := 0; i < batch; i++ {
					ev := events[i%len(events)]
					if bus.Active(ev.Type) {
						bus.Emit(ev)
					}
				}
			})
		})
	}
	var noop probe.Bus
	noop.Attach(&countingProbe{})
	l := emit(&noop)
	m["probe.emit_noop_ns"] = l.nsPerOp()
	m["probe.emit_allocs"] = l.allocsPerOp()

	var collectors probe.Bus
	collectors.AttachCollector(probe.NewSkewStats())
	collectors.AttachCollector(probe.NewMsgStats())
	m["probe.emit_collectors_ns"] = emit(&collectors).nsPerOp()
}

// --- harness ---

func smallSpecs(k int) []harness.Spec {
	specs := make([]harness.Spec, k)
	for i := range specs {
		specs[i] = benchCampaign(int64(i + 1)).Base
		specs[i].FaultyCount = 3
	}
	return specs
}

func driveHarness(cfg driverConfig, m map[string]float64) error {
	spec := smallSpecs(1)[0]
	batch := cfg.pick(500, 5)
	var keyErr error
	l := cfg.repeat(func() lap {
		return timed(batch, func() {
			for i := 0; i < batch; i++ {
				spec.Seed++
				if _, err := harness.SpecKey(spec); err != nil {
					keyErr = err
				}
			}
		})
	})
	if keyErr != nil {
		return keyErr
	}
	m["harness.speckey_us"] = l.nsPerOp() / 1e3

	// Batch speed-up: the 16 independent runs a campaign worker gets per
	// lease, on one pool worker and on GOMAXPROCS.
	specs := smallSpecs(cfg.pick(16, 2))
	var runErr error
	perBatch := func(workers int) float64 {
		l := cfg.repeat(func() lap {
			return timed(1, func() {
				if _, err := harness.RunBatch(context.Background(), specs, workers, nil); err != nil {
					runErr = err
				}
			})
		})
		return l.nsPerOp()
	}
	one := perBatch(1)
	many := one
	if k := runtime.GOMAXPROCS(0); k > 1 {
		many = perBatch(k)
	}
	m["harness.batch_speedup"] = one / many
	return runErr
}

// --- tracelake ---

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// recordedEvents captures the event stream of a short lake-record run.
func recordedEvents(horizon float64) ([]probe.Event, error) {
	var events []probe.Event
	spec := lakeSpec(horizon)
	spec.Seed = 1
	_, err := optsync.Run(context.Background(), spec,
		optsync.WithProbe(optsync.ProbeFunc(func(ev optsync.Event) { events = append(events, ev) })))
	return events, err
}

func driveTracelake(cfg driverConfig, m map[string]float64) error {
	events, err := recordedEvents(float64(cfg.pick(40, 3)))
	if err != nil {
		return err
	}
	var image bytes.Buffer
	var writeErr error
	var flush lap
	var size int64
	write := cfg.repeat(func() lap {
		image.Reset()
		cw := &countingWriter{}
		w := tracelake.NewWriter(io.MultiWriter(&image, cw))
		l := timed(len(events), func() {
			for _, ev := range events {
				w.OnEvent(ev)
			}
		})
		f := timed(1, func() {
			if err := w.Flush(); err != nil {
				writeErr = err
			}
		})
		flush.add(f)
		size = cw.n
		return l
	})
	if writeErr != nil {
		return writeErr
	}
	m["tracelake.write_ns_per_event"] = write.nsPerOp()
	m["tracelake.bytes_per_event"] = float64(size) / float64(len(events))
	m["tracelake.flush_ms"] = flush.nsPerOp() / 1e6

	lake, err := tracelake.OpenBytes(image.Bytes())
	if err != nil {
		return err
	}
	defer lake.Close()
	var scanErr error
	scan := func(workers int) float64 {
		q := tracelake.Query{Workers: workers}
		l := cfg.repeat(func() lap {
			return timed(len(events), func() {
				rows := 0
				if _, err := lake.ScanRows(q, func(r *tracelake.Rows) error { rows += r.Len(); return nil }); err != nil {
					scanErr = err
				}
				if rows != len(events) {
					scanErr = fmt.Errorf("scan decoded %d of %d rows", rows, len(events))
				}
			})
		})
		return l.nsPerOp()
	}
	one := scan(1)
	many := one
	if k := runtime.GOMAXPROCS(0); k > 1 {
		many = scan(k)
	}
	m["tracelake.scan_mevents_per_s"] = 1e3 / one
	m["tracelake.scan_parallel_speedup"] = one / many
	return scanErr
}

// --- campaign store ---

func driveCampaign(cfg driverConfig, m map[string]float64) error {
	cells := cfg.pick(256, 8)
	spec := smallSpecs(1)[0]
	res, err := harness.RunContext(context.Background(), spec)
	if err != nil {
		return err
	}
	keys := make([]string, cells)
	for i := range keys {
		spec.Seed = int64(i + 1)
		if keys[i], err = harness.SpecKey(spec); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return err
	}
	var put, getLoose, compact, getSegment lap
	var cellBytes float64
	var loopErr error
	note := func(err error) {
		if err != nil && loopErr == nil {
			loopErr = err
		}
	}
	getAll := func(store *campaign.Store) func() {
		return func() {
			for _, key := range keys {
				if _, ok, err := store.Get(key); err != nil || !ok {
					note(fmt.Errorf("store lost cell %.8s (%v)", key, err))
				}
			}
		}
	}
	cfg.repeat(func() lap {
		dir, err := os.MkdirTemp(cfg.tmpRoot, "tmp-store-")
		if err != nil {
			note(err)
			return lap{}
		}
		defer os.RemoveAll(dir)
		store, err := campaign.Open(dir)
		if err != nil {
			note(err)
			return lap{}
		}
		put.add(timed(cells, func() {
			for _, key := range keys {
				note(store.Put(key, res))
			}
		}))
		size, err := dirSize(filepath.Join(dir, "cells"))
		note(err)
		cellBytes = float64(size) / float64(cells)
		getLoose.add(timed(cells, getAll(store)))
		compact.add(timed(cells, func() {
			st, err := store.Compact()
			note(err)
			if err == nil && st.Compacted != cells {
				note(fmt.Errorf("compacted %d of %d cells", st.Compacted, cells))
			}
		}))
		getSegment.add(timed(cells, getAll(store)))
		return lap{}
	})
	if loopErr != nil {
		return loopErr
	}
	m["campaign.put_us"] = put.nsPerOp() / 1e3
	m["campaign.get_loose_us"] = getLoose.nsPerOp() / 1e3
	m["campaign.get_segment_us"] = getSegment.nsPerOp() / 1e3
	m["campaign.compact_ms_per_kcell"] = compact.nsPerOp() * 1e3 / 1e6
	m["campaign.cell_bytes"] = cellBytes
	return nil
}

// --- fabric RPC ---

func driveFabric(cfg driverConfig, m map[string]float64) error {
	cells := cfg.pick(4096, 8)
	c := benchCampaign(1)
	c.Axes = []optsync.Axis{{Field: "faulty", Values: optsync.Ints(3)}}
	c.Seeds = cells
	dir, err := os.MkdirTemp(cfg.tmpRoot, "tmp-rpc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := campaign.Open(dir)
	if err != nil {
		return err
	}
	srv, err := fabric.NewServer(c, store, fabric.ServerOptions{})
	if err != nil {
		return err
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := hs.Client()
	canned, err := harness.RunContext(context.Background(), smallSpecs(1)[0])
	if err != nil {
		return err
	}
	leaseBody, err := json.Marshal(fabric.LeaseRequest{Worker: "bench", Max: 1})
	if err != nil {
		return err
	}
	post := func(path string, body []byte, out any) error {
		resp, err := client.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", path, resp.Status)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	// One pair is a 1-cell /lease and the /report that settles it.
	pair := func() error {
		var lease fabric.LeaseResponse
		if err := post("/lease", leaseBody, &lease); err != nil {
			return err
		}
		if len(lease.Cells) != 1 {
			return fmt.Errorf("leased %d cells, want 1", len(lease.Cells))
		}
		cell := lease.Cells[0]
		res := canned
		res.Spec = cell.Spec
		body, err := json.Marshal(fabric.ReportRequest{Worker: "bench",
			Cells: []fabric.CellReport{{Index: cell.Index, Key: cell.Key, Result: res}}})
		if err != nil {
			return err
		}
		var ack fabric.ReportResponse
		if err := post("/report", body, &ack); err != nil {
			return err
		}
		if ack.Accepted != 1 {
			return fmt.Errorf("report not accepted: %+v", ack)
		}
		return nil
	}
	if err := pair(); err != nil { // connection established, pools warm
		return err
	}
	left := cells - 1
	batch := cfg.pick(64, 2)
	var rpcErr error
	var sum lap
	deadline := time.Now().Add(cfg.budget)
	for left >= batch {
		l := timed(2*batch, func() {
			for i := 0; i < batch; i++ {
				if err := pair(); err != nil && rpcErr == nil {
					rpcErr = err
				}
			}
		})
		left -= batch
		sum.add(l)
		if !time.Now().Before(deadline) {
			break
		}
	}
	if rpcErr != nil {
		return rpcErr
	}
	m["fabric.rpc_roundtrip_us"] = sum.nsPerOp() / 1e3
	m["fabric.rpc_allocs"] = sum.allocsPerOp()
	return nil
}
