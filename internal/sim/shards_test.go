package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// TestShardCountSemantics: at k = 1 NewShards is one engine, both Global and
// Shard(0), built without a lookahead and without a goroutine; above, every
// shard has its own. At every k, Run(until) leaves every clock at until, and
// Drain leaves each clock finite and at or past the last event its engine
// executed — at k = 1 exactly there, as that drain has no window frontier to
// move to, so what is scheduled after a Drain is never behind the clock.
func TestShardCountSemantics(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			lookahead := 0.0
			if k > 1 {
				lookahead = 0.25
			}
			goroutines := runtime.NumGoroutine()
			s := NewShards(7, k, lookahead)
			defer s.Close()
			if started := runtime.NumGoroutine() - goroutines; k == 1 && started > 0 {
				t.Fatalf("NewShards(_, 1, 0) started %d goroutines", started)
			}
			if one := s.Global() == s.Shard(0); one != (k == 1) {
				t.Fatalf("Global() == Shard(0) is %v at k = %d", one, k)
			}
			engines := []*Engine{s.Global()}
			for i := 0; i < k; i++ {
				engines = append(engines, s.Shard(i))
			}
			// last[i] is written by engine i's events alone: one goroutine each.
			last := make([]Time, len(engines))
			arm := func(at Time) {
				for i, e := range engines {
					e.MustAtLane(int32(i)-1, at+Time(i)/16, func() { last[i] = e.Now() })
				}
			}
			arm(1)
			s.Run(2)
			for i, e := range engines {
				if e.Now() != 2 || last[i] == 0 {
					t.Fatalf("engine %d: clock %v after Run(2), last event at %v", i, e.Now(), last[i])
				}
			}
			arm(3)
			s.Drain()
			for i, e := range engines {
				ran := last[i]
				if k == 1 {
					ran = slices.Max(last) // Global and Shard(0) are one engine
				}
				if now := e.Now(); math.IsInf(now, 0) || now < ran || k == 1 && now != ran {
					t.Fatalf("engine %d: clock %v after Drain, last event at %v", i, now, ran)
				}
			}
		})
	}
}
