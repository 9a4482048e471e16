package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// DetRand enforces the determinism contract inside the deterministic
// core (DeterministicPaths): results must be a pure function of the
// spec, bit-exact across serial, sharded, and replayed execution. Five
// ways code silently breaks that — or prices it out of large n — are
// caught here:
//
//   - wall-clock reads (time.Now and friends) make results depend on
//     when a run happens;
//   - the global math/rand source is shared process state: draw order
//     depends on what else ran, and shards cannot reproduce it
//     (per-entity streams are the repo idiom: rand.New over a
//     sim.NewStream(seed, id, purpose), one consumer per purpose, see
//     node.NewCluster's clock streams and the network's per-sender delay
//     streams);
//   - a generator built anywhere but sim.NewStream: math/rand.NewSource
//     is 607 words of state and a ~1 900-step seeding loop per stream
//     (the large-n memory wall PR 18 removed) and folds its seed mod
//     2^31-1, and a math/rand/v2 generator seeded by hand skips the seed
//     derivation that keeps (id, purpose) streams distinct;
//   - goroutines outside the sim.Shards coordinator introduce scheduler
//     interleaving into what must be a single logical thread;
//   - Go map iteration order is randomized per run, so a map-range body
//     that schedules events, emits probes, or appends to ordered output
//     injects that randomness into the event stream. Collect the keys,
//     sort them, and iterate the sorted slice (append-then-sort inside
//     the loop is recognized as the first half of that idiom).
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid wall-clock, global rand, hand-built generators, stray goroutines, and ordered map iteration in deterministic packages",
	Run:  runDetRand,
}

// wallClockFuncs are the time package entry points that read or depend
// on the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the package-level math/rand (and math/rand/v2)
// functions that draw from the shared global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 additions.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true,
	"Uint64N": true,
}

// generatorNames are the math/rand and math/rand/v2 constructors and
// generator types that build a random source; in the deterministic core
// only sim.NewStream's generator (allow-listed there) may.
var generatorNames = map[string]bool{
	"NewSource": true, "NewPCG": true, "NewChaCha8": true,
	"PCG": true, "ChaCha8": true,
}

func runDetRand(p *Pass) []Finding {
	if !p.Det {
		return nil
	}
	var out []Finding
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				out = append(out, checkDetSelector(p, n)...)
			case *ast.GoStmt:
				if !goStmtAllowed(p, n) {
					out = append(out, Finding{
						Pos:     n.Pos(),
						Message: "goroutine spawned outside the sim.Shards coordinator; deterministic code runs on one logical thread",
					})
				}
			case *ast.RangeStmt:
				out = append(out, checkMapRange(p, n)...)
			}
			return true
		})
	}
	return out
}

// checkDetSelector flags wall-clock, global-rand and generator
// references at their use sites.
func checkDetSelector(p *Pass, sel *ast.SelectorExpr) []Finding {
	obj := p.Pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return nil // not a package-level name (a method, a field)
	}
	if path := obj.Pkg().Path(); (path == "math/rand" || path == "math/rand/v2") && generatorNames[obj.Name()] {
		why := "generator built by hand (rand." + obj.Name() + "): seed derivation is part of the generator"
		if obj.Name() == "NewSource" {
			why = "607-word source (rand.NewSource): 4.9 KB and a ~1 900-step seeding loop per stream"
		}
		return []Finding{{
			Pos:     sel.Pos(),
			Message: why + "; use sim's stream constructor (rand.New(sim.NewStream(seed, id, purpose)))",
		}}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	switch funcPkgPath(fn) {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return []Finding{{
				Pos:     sel.Pos(),
				Message: fmt.Sprintf("wall-clock read time.%s in deterministic package; use engine virtual time (sim.Engine.Now) or move the code out of the deterministic core", fn.Name()),
			}}
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			return []Finding{{
				Pos:     sel.Pos(),
				Message: fmt.Sprintf("global math/rand source (rand.%s) in deterministic package; draw from a spec-seeded stream of your own purpose (rand.New over sim.NewStream(seed, id, purpose))", fn.Name()),
			}}
		}
	}
	return nil
}

// goStmtAllowed permits goroutine spawns only inside the parallel
// coordinator itself: methods of sim.Shards and the functions that
// construct it (result type *sim.Shards).
func goStmtAllowed(p *Pass, g *ast.GoStmt) bool {
	fd := p.enclosingFunc(g)
	if fd == nil {
		return false
	}
	fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	if isMethod(fn, simPath, "Shards", fn.Name()) {
		return true
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok &&
			named.Obj().Name() == "Shards" && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == simPath {
			return true
		}
	}
	return false
}

// engineScheduleMethods are sim.Engine methods that enqueue events: a
// map-range body calling one injects map order into the event sequence.
var engineScheduleMethods = map[string]bool{
	"At": true, "AtLane": true, "AtMsg": true, "After": true,
	"MustAt": true, "MustAtLane": true, "MustAtMsg": true,
	"MustAfter": true, "ScheduleMsg": true, "TakeKey": true,
}

// netSendMethods are network.Net entry points that put messages on the
// wire.
var netSendMethods = map[string]bool{"Send": true, "Broadcast": true}

// checkMapRange flags range statements over maps whose body schedules
// events, emits probes, or appends to ordered output without a
// subsequent sort.
func checkMapRange(p *Pass, rng *ast.RangeStmt) []Finding {
	t := p.Pkg.Info.TypeOf(rng.X)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return nil
	}
	var out []Finding
	report := func(pos token.Pos, what string) {
		out = append(out, Finding{
			Pos:     rng.Pos(),
			Message: fmt.Sprintf("map iteration order reaches %s; collect and sort the keys, then iterate the sorted slice", what),
		})
	}
	seen := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if seen {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if p.isBuiltin(call, "append") {
			if !appendTargetSortedLater(p, rng, call) {
				report(call.Pos(), "ordered output (append inside the loop, never sorted)")
				seen = true
			}
			return true
		}
		fn := p.calleeFunc(call)
		switch {
		case isMethod(fn, probeBusPath, "Bus", "Emit"):
			report(call.Pos(), "probe emission (Bus.Emit)")
			seen = true
		case fn != nil && funcPkgPath(fn) == simPath && recvTypeName(fn) == "Engine" && engineScheduleMethods[fn.Name()]:
			report(call.Pos(), "event scheduling (Engine."+fn.Name()+")")
			seen = true
		case fn != nil && funcPkgPath(fn) == networkPath && recvTypeName(fn) == "Net" && netSendMethods[fn.Name()]:
			report(call.Pos(), "message transmission (Net."+fn.Name()+")")
			seen = true
		}
		return true
	})
	return out
}

// appendTargetSortedLater recognizes the first half of the sorted-keys
// idiom: appending map keys to a slice inside the range is fine when the
// slice is sorted after the loop (sort.* or slices.Sort* on the same
// variable, positioned after the range statement, in the same function).
func appendTargetSortedLater(p *Pass, rng *ast.RangeStmt, call *ast.CallExpr) bool {
	assign, ok := p.parent(call).(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 {
		return false
	}
	obj := rootObj(p, assign.Lhs[0])
	if obj == nil {
		return false
	}
	fd := p.enclosingFunc(rng)
	if fd == nil {
		return false
	}
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() <= rng.End() {
			return true
		}
		fn := p.calleeFunc(c)
		if fn == nil {
			return true
		}
		pkg := funcPkgPath(fn)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range c.Args {
			for _, id := range exprIdents(arg) {
				if p.Pkg.Info.Uses[id] == obj {
					sorted = true
					return false
				}
			}
		}
		return true
	})
	return sorted
}

// rootObj resolves the base identifier of an lvalue chain (x, x[i],
// x.f, *x) to its object.
func rootObj(p *Pass, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if obj := p.Pkg.Info.Uses[e]; obj != nil {
				return obj
			}
			return p.Pkg.Info.Defs[e]
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
