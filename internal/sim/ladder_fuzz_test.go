package sim

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The fuzz target drives the bare ladder through an op stream decoded from
// the fuzz bytes, three bytes an op, against a brute-force minimum scan.
//
//	b0 & 7   0-4 push, 5 peek (seals ahead of the clock), 6 bounded drain, 7 pop
//	b0 >> 3  push: index into fuzzCoarse, the offset from the drain point
//	b1       push / drain: count - 1
//	b2       push: step between the events, fuzzStep[b2&15] * (1 + b2>>4)
//
// fuzzCoarse spans the distances the ladder treats differently: the drain
// point itself (late arrival), inside the bucket being drained, the next
// buckets, the edge of the 256-bucket window, the far bucket, and spans so
// small or so large that a re-anchor re-tunes the width to its floor or by
// orders of magnitude.
var (
	fuzzCoarse = [32]Time{
		0, 1e-12, 1e-10, 5e-9, 1e-7, 1e-6, 1e-5, 1e-4,
		5e-4, 1e-3, 1.5e-3, 2e-3, 3e-3, 5e-3, 1e-2, 5e-2,
		0.1, 0.2, 0.255, 0.256, 0.3, 1, 3, 10,
		100, 1000, 1e4, 1e6, 2e-3, 1e-3, 0, 0.256,
	}
	fuzzStep = [16]Time{0, 1e-13, 1e-12, 3e-11, 1e-9, 1e-7, 1e-6, 8e-6, 1e-5, 1e-4, 5e-4, 1e-3, 1e-2, 0.1, 1, 7}
)

// fuzzMaxEvents bounds one input's pushes: the reference pop is a scan.
const fuzzMaxEvents = 4096

// runLadderOps executes one op stream and returns the ladder, drained. Every
// pop must return the key peek announced and the reference's minimum; pushes
// are keyed after the last pop, as the engine guarantees.
func runLadderOps(t *testing.T, data []byte) *ladder {
	t.Helper()
	l := new(ladder)
	var (
		ref  []Key
		now  Time
		seq  uint32
		pops int
	)
	pop := func() {
		k, ok := l.peek()
		if !ok {
			t.Fatalf("pop %d: ladder empty with %d events in the reference", pops, len(ref))
		}
		best := 0
		for i := range ref {
			if ref[i].Less(ref[best]) {
				best = i
			}
		}
		if ev := l.pop(); ev.key != k || k != ref[best] || ev.msg.Index != k.Seq {
			t.Fatalf("pop %d: ladder gave %+v (peek %+v), reference minimum %+v", pops, ev, k, ref[best])
		}
		ref[best] = ref[len(ref)-1]
		ref = ref[:len(ref)-1]
		now = k.At
		pops++
	}
	for ; len(data) >= 3; data = data[3:] {
		kind, count := data[0]&7, int(data[1])+1
		switch {
		case kind <= 4:
			step := fuzzStep[data[2]&15] * Time(1+data[2]>>4)
			for j := 0; j < count && int(seq) < fuzzMaxEvents; j++ {
				k := Key{At: now + fuzzCoarse[data[0]>>3] + Time(j)*step, Cause: now, Seq: seq}
				ref = append(ref, k)
				l.push(now, msgEvent{key: k, msg: Message{Index: seq}})
				seq++
			}
		case kind == 5:
			l.peek()
		default:
			if kind == 7 {
				count = 1
			}
			for ; count > 0 && len(ref) > 0; count-- {
				pop()
			}
		}
		if l.count != len(ref) {
			t.Fatalf("ladder counts %d events, reference holds %d", l.count, len(ref))
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if _, ok := l.peek(); ok || l.count != 0 || l.live != 0 {
		t.Fatalf("after the drain: peek ok=%v, count %d, %d chunks still held", ok, l.count, l.live)
	}
	return l
}

func FuzzLadderMatchesReferenceQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runLadderOps(t, data) })
}

// TestLadderFuzzSeedsReachTheirPaths runs the committed seed corpus and
// requires each named seed to take the ladder through the transition it is
// named after, so the fuzzer starts from inputs on both sides of each.
func TestLadderFuzzSeedsReachTheirPaths(t *testing.T) {
	reached := map[string]func(l *ladder) bool{
		"bucket-of-200-spills":         func(l *ladder) bool { return l.stats.Spills > 0 && l.stats.Unseals == 0 },
		"sealed-ahead-then-unsealed":   func(l *ladder) bool { return l.stats.Unseals > 0 },
		"multi-chunk-under-min-width":  func(l *ladder) bool { return l.stats.Reanchors > 0 && l.stats.Spills == 0 && cap(l.own) >= 300 },
		"reanchor-retunes-the-width":   func(l *ladder) bool { return l.stats.Reanchors > 0 && l.r0.width > 10*ladderDefaultWidth },
		"late-arrivals-outgrow-bottom": func(l *ladder) bool { return l.stats.Shifted > 0 && cap(l.own) > 0 && l.stats.Spills == 0 },
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzLadderMatchesReferenceQueue")
	for name, ok := range reached {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a version line and one Go-syntax []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l := runLadderOps(t, []byte(data)); !ok(l) {
			t.Errorf("seed %s does not reach its path: stats %+v, width %g, own cap %d", name, l.stats, l.r0.width, cap(l.own))
		}
	}
}
