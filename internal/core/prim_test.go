package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"optsync/internal/node"
)

// textbookPrim is the paper's Section 4 algorithm written for reading, not
// for speed: a set per round as a map, nothing reused, a closure per timer.
// It is the oracle PrimitiveProtocol is compared against.
type textbookPrim struct {
	cfg                    Config
	lastAccepted, lastSent int
	readyFrom              map[int]map[node.ID]bool
	sent                   map[int]bool
	timer                  node.Timer
}

func newTextbookPrim(cfg Config) *textbookPrim {
	return &textbookPrim{cfg: cfg, readyFrom: map[int]map[node.ID]bool{}, sent: map[int]bool{}}
}

func (p *textbookPrim) Start(env node.Env) { p.arm(env) }

func (p *textbookPrim) Deliver(env node.Env, from node.ID, msg node.Message) {
	k := msg.Round
	if msg.Kind != KindReady || k <= p.lastAccepted || k > p.lastAccepted+p.cfg.MaxRoundAhead {
		return
	}
	if p.readyFrom[k] == nil {
		p.readyFrom[k] = map[node.ID]bool{}
	}
	p.readyFrom[k][from] = true
	if len(p.readyFrom[k]) >= env.F()+1 {
		p.ready(env, k)
	}
	if len(p.readyFrom[k]) >= 2*env.F()+1 && k > p.lastAccepted {
		p.lastAccepted = k
		env.SetLogical(float64(k)*p.cfg.Period + p.cfg.Alpha)
		env.Pulse(k)
		for r := range p.readyFrom {
			if r <= k {
				delete(p.readyFrom, r)
			}
		}
		for r := range p.sent {
			if r <= k {
				delete(p.sent, r)
			}
		}
		p.arm(env)
	}
}

// arm waits for the clock to read k*P, k the first round neither readied
// nor accepted.
func (p *textbookPrim) arm(env node.Env) {
	env.Cancel(p.timer)
	k := max(p.lastSent, p.lastAccepted) + 1
	p.timer = env.AtLogical(float64(k)*p.cfg.Period, func() {
		p.ready(env, k)
		if p.lastAccepted < k {
			p.arm(env)
		}
	})
}

func (p *textbookPrim) ready(env node.Env, k int) {
	if p.sent[k] || k <= p.lastAccepted {
		return
	}
	p.sent[k] = true
	p.lastSent = max(p.lastSent, k)
	env.Broadcast(ReadyMessage(k))
}

// recEnv records every effect a protocol has on its environment. Timers
// are numbered in the order they are armed and fire only when the driver
// says so; Cancel is exact, as the real environments' is.
type recEnv struct {
	stubEnv
	log     []string
	timers  int
	pending *recTimer
}

type recTimer struct {
	id int
	fn func()
}

func (e *recEnv) Broadcast(m node.Message) {
	e.log = append(e.log, fmt.Sprintf("Broadcast(kind %d round %d)", m.Kind, m.Round))
}
func (e *recEnv) SetLogical(v float64) { e.log = append(e.log, fmt.Sprintf("SetLogical(%v)", v)) }
func (e *recEnv) Pulse(k int)          { e.log = append(e.log, fmt.Sprintf("Pulse(%d)", k)) }
func (e *recEnv) AtLogical(v float64, fn func()) node.Timer {
	e.timers++
	e.pending = &recTimer{id: e.timers, fn: fn}
	e.log = append(e.log, fmt.Sprintf("AtLogical(%v) = timer %d", v, e.timers))
	return e.pending
}
func (e *recEnv) Cancel(t node.Timer) {
	rt, _ := t.(*recTimer)
	if rt == nil {
		e.log = append(e.log, "Cancel(nil)")
		return
	}
	e.log = append(e.log, fmt.Sprintf("Cancel(timer %d)", rt.id))
	if e.pending == rt {
		e.pending = nil
	}
}

// fire runs the pending timer, if one is.
func (e *recEnv) fire() {
	if t := e.pending; t != nil {
		e.pending = nil
		e.log = append(e.log, fmt.Sprintf("fire(timer %d)", t.id))
		t.fn()
	}
}

// TestPrimitiveMatchesTextbook drives PrimitiveProtocol and the textbook
// primitive through the same seeded interleavings of honest readies,
// duplicates, stale and far-future rounds, senders that ready every round
// of the window, sender ids no process has, foreign kinds and timer
// firings. What each does to its environment — Broadcast, SetLogical,
// Pulse, AtLogical, Cancel, in order and with arguments — must be equal.
func TestPrimitiveMatchesTextbook(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := rng.Intn(5)
		n := 3*f + 1 + rng.Intn(3)
		cfg := Config{Period: 1, Alpha: 0.25, MaxRoundAhead: 1 + rng.Intn(6)}
		real, book := NewPrimitive(cfg), newTextbookPrim(cfg)
		envR := &recEnv{stubEnv: stubEnv{n: n, f: f}}
		envB := &recEnv{stubEnv: stubEnv{n: n, f: f}}
		real.Start(envR)
		book.Start(envB)

		type ready struct{ from, round int }
		var past []ready
		for step := 0; step < 400; step++ {
			base := book.lastAccepted
			r := ready{from: rng.Intn(n), round: base + 1}
			kind := KindReady
			switch rng.Intn(12) {
			case 0:
				envR.fire()
				envB.fire()
				continue
			case 1:
				if len(past) > 0 {
					r = past[rng.Intn(len(past))] // duplicate, or stale by now
				}
			case 2:
				r.round = base - rng.Intn(3) // stale
			case 3:
				r.round = base + cfg.MaxRoundAhead + rng.Intn(3) // the window's last round, or beyond it
			case 4:
				r.round = base + 1 + rng.Intn(cfg.MaxRoundAhead) // ahead, inside the window
			case 5:
				r.from = []int{-1, n, n + 7, -1 << 40}[rng.Intn(4)] // an id no process has
			case 6:
				kind = KindRound // foreign traffic
			}
			past = append(past, r)
			msg := node.Message{Kind: kind, Round: r.round}
			real.Deliver(envR, r.from, msg)
			book.Deliver(envB, r.from, msg)
			if len(envR.log) != len(envB.log) || real.LastAccepted() != book.lastAccepted {
				break // reported below, with the step's context in the logs
			}
		}
		if real.LastAccepted() != book.lastAccepted {
			t.Fatalf("seed %d: last accepted %d, textbook %d", seed, real.LastAccepted(), book.lastAccepted)
		}
		for i := 0; i < len(envR.log) || i < len(envB.log); i++ {
			var a, b string
			if i < len(envR.log) {
				a = envR.log[i]
			}
			if i < len(envB.log) {
				b = envB.log[i]
			}
			if a != b {
				t.Fatalf("seed %d (n=%d f=%d window %d): Env call %d is %q, textbook made %q", seed, n, f, cfg.MaxRoundAhead, i, a, b)
			}
		}
		if f > 0 && seed < 20 && book.lastAccepted == 0 {
			t.Fatalf("seed %d: 400 steps accepted no round; the interleaving exercises nothing", seed)
		}
	}
}

// readyBytes is the memory behind the protocol's ready sets, spare
// included: each set's header and its words, counted by capacity.
func readyBytes(p *PrimitiveProtocol) (ids, words, capBytes int) {
	setBytes := func(s *readySet) int {
		return int(unsafe.Sizeof(*s)) + cap(s.words)*int(unsafe.Sizeof(readyWord{}))
	}
	if p.spare != nil {
		capBytes = setBytes(p.spare)
	}
	for _, set := range p.readyFrom {
		ids += set.n
		words += len(set.words)
		capBytes += setBytes(set)
	}
	return ids, words, capBytes
}

// TestForgedReadiesBuyBoundedState: f faulty senders readying every round
// of the window, over and over, hold f ids per round and no more; rounds
// beyond the window hold nothing; the one spare set does not multiply;
// and an honest quorum for a round inside the window is accepted after the
// flood.
func TestForgedReadiesBuyBoundedState(t *testing.T) {
	const n, f, window = 256, 85, 16
	const blocks = (f + 63) / 64 // words one round of ids 0..f-1 needs
	env := &recEnv{stubEnv: stubEnv{n: n, f: f}}
	p := NewPrimitive(Config{Period: 1, MaxRoundAhead: window})
	p.Start(env)
	calls := len(env.log)
	flood := func() {
		base := p.LastAccepted()
		for pass := 0; pass < 3; pass++ {
			for k := base + 1; k <= base+3*window; k++ {
				for from := 0; from < f; from++ {
					p.Deliver(env, from, ReadyMessage(k))
				}
			}
		}
	}
	// A set's word capacity is what append grew it to: under twice its
	// length. After an acceptance one set may sit in the recycled spare
	// instead, at whatever capacity the accepted round grew it to.
	check := func(when string, spareBytes int) {
		t.Helper()
		ids, words, bytes := readyBytes(p)
		if len(p.readyFrom) != window || ids != f*window || words != blocks*window {
			t.Fatalf("%s: %d rounds hold %d sender ids in %d words, want %d rounds, %d ids, %d words",
				when, len(p.readyFrom), ids, words, window, f*window, blocks*window)
		}
		perSet := int(unsafe.Sizeof(readySet{})) + 2*blocks*int(unsafe.Sizeof(readyWord{}))
		if limit := window*perSet + spareBytes; bytes > limit {
			t.Fatalf("%s: ready sets hold %d bytes, want at most %d", when, bytes, limit)
		}
	}
	flood()
	check("after the first flood", 0)
	if p.spare != nil {
		t.Fatalf("a flood that completed no round left a spare set of %d words", cap(p.spare.words))
	}
	if len(env.log) != calls {
		t.Fatalf("f faulty readies per round moved the protocol: %v", env.log[calls:])
	}

	const honest = window / 2
	for from := f; from < 3*f+1; from++ {
		p.Deliver(env, from, ReadyMessage(honest))
	}
	if p.LastAccepted() != honest {
		t.Fatalf("honest quorum for round %d not accepted after the flood (last accepted %d)", honest, p.LastAccepted())
	}
	if len(p.readyFrom) != window-honest {
		t.Fatalf("%d rounds retained after accepting round %d of a full window of %d", len(p.readyFrom), honest, window)
	}
	if p.spare == nil || p.spare.n != 0 || len(p.spare.words) != 0 || cap(p.spare.words) < n/64 {
		t.Fatalf("the accepted round's set was not kept empty as the spare: %+v", p.spare)
	}
	if p.cur != nil {
		t.Fatal("the cached set survived the acceptance that deleted its round")
	}
	spareBytes := int(unsafe.Sizeof(readySet{})) + cap(p.spare.words)*int(unsafe.Sizeof(readyWord{}))
	flood()
	check("after the second flood", spareBytes)
	if p.spare != nil {
		t.Fatal("the spare set was not taken by the next round to be created")
	}
}

// checkReadySet fails unless s is well formed and holds exactly ref: words
// strictly ascending by block, none empty, and n the number of set bits.
func checkReadySet(t *testing.T, s *readySet, ref map[int]bool) {
	t.Helper()
	count := 0
	for i, w := range s.words {
		if w.bits == 0 || i > 0 && s.words[i-1].idx >= w.idx {
			t.Fatalf("word %d of %v is empty or out of order", i, s.words)
		}
		for b := 0; b < 64; b++ {
			if w.bits&(1<<b) != 0 {
				count++
				if id := w.idx<<6 | b; !ref[id] {
					t.Fatalf("set holds %d, which was never added", id)
				}
			}
		}
	}
	if count != len(ref) || s.n != len(ref) {
		t.Fatalf("set counts %d (%d bits) for %d distinct senders", s.n, count, len(ref))
	}
}

// FuzzReadySetMatchesMap runs byte-decoded sender ids through a readySet
// and a map[int]bool side by side. Each step takes three bytes: an op
// byte and a little-endian 16-bit id. Op 0 adds the id as unsigned (0 to
// 2^16-1), op 1 as signed (negative ids have blocks too), op 2 repeats an
// earlier id, op 3 resets both — the spare's reuse. add's answer and n
// must match the map's at every step. The committed corpus
// (testdata/fuzz) starts it at block edges (0, 63, 64, 255 = n-1 at
// n = 256), the top of the 16-bit range, negative ids, inserts in front of
// every word, and a shuffled full mesh of 256.
func FuzzReadySetMatchesMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s readySet
		ref := map[int]bool{}
		var seen []int
		for ; len(data) >= 3; data = data[3:] {
			raw := uint16(data[1]) | uint16(data[2])<<8
			id := int(raw)
			switch data[0] % 4 {
			case 1:
				id = int(int16(raw))
			case 2:
				if len(seen) == 0 {
					continue
				}
				id = seen[int(raw)%len(seen)]
			case 3:
				s.reset()
				clear(ref)
				checkReadySet(t, &s, ref)
				continue
			}
			seen = append(seen, id)
			if got, want := s.add(id), !ref[id]; got != want {
				t.Fatalf("add(%d) = %v, map says new = %v", id, got, want)
			}
			ref[id] = true
			checkReadySet(t, &s, ref)
		}
	})
}

// TestPrimDeliverAllocs pins the unsigned path's steady state at the
// benchmark's shape: a whole round at n = 256 — 2f+1 readies, the join, the
// acceptance, the timer re-armed — allocates nothing worth counting.
func TestPrimDeliverAllocs(t *testing.T) {
	const n, f = 256, 85
	env := &stubEnv{n: n, f: f}
	p := NewPrimitive(Config{Period: 1})
	p.Start(env)
	order := rand.New(rand.NewSource(1)).Perm(2*f + 1)
	k := 0
	round := func() {
		k++
		for _, from := range order {
			p.Deliver(env, from, ReadyMessage(k))
		}
		if p.LastAccepted() != k {
			t.Fatalf("round %d delivered: last accepted %d", k, p.LastAccepted())
		}
	}
	round() // the first round grows the buffer every later one reuses
	if allocs := testing.AllocsPerRun(100, round); allocs > 2 {
		t.Errorf("a full round of %d readies: %v allocations, want at most 2", 2*f+1, allocs)
	}
	if env.armed < k {
		t.Fatalf("timer armed %d times over %d acceptances", env.armed, k)
	}
}
