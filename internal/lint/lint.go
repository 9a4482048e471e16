package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a package.
type Analyzer struct {
	// Name is the identifier used in diagnostics and in
	// //syncsim:allowlist directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports findings for the pass's package.
	Run func(*Pass) []Finding
}

// Finding is an analyzer's raw report before directive filtering.
type Finding struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package through the analyzers.
type Pass struct {
	Loader *Loader
	Pkg    *Package
	// Det reports whether the package is in the deterministic core (see
	// DeterministicPaths), the scope of the detrand analyzer.
	Det bool

	parents map[ast.Node]ast.Node
	hot     []hotFunc
}

// hotFunc is a function annotated //syncsim:hotpath.
type hotFunc struct {
	decl *ast.FuncDecl
	file *ast.File
}

// DeterministicPaths lists the module-relative package paths (each
// covering its subtree) whose code must be bit-exact across serial,
// sharded, and replayed execution. internal/rt is deliberately absent —
// it is the wall-clock runtime — as are the campaign/fabric layers,
// which orchestrate whole runs and may use real time and crypto-seeded
// jitter (see internal/fabric.NewWorker), and the linter itself.
// TestEveryInternalPackageIsClassified keeps a new package from falling
// between the two lists.
var DeterministicPaths = []string{
	"internal/sim",
	"internal/network",
	"internal/node",
	"internal/core",
	"internal/adversary",
	"internal/baseline",
	"internal/lockstep",
	"internal/harness",
	"internal/experiment",
	"internal/metrics",
	"internal/clock",
	"internal/probe",
	"internal/tracelake",
	"internal/sig",
	"internal/analysis",
}

// Deterministic reports whether the import path (under module path mod)
// is inside the deterministic core.
func Deterministic(mod, path string) bool {
	rel, ok := strings.CutPrefix(path, mod+"/")
	if !ok {
		return false
	}
	for _, p := range DeterministicPaths {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// Analyzers is the full suite in execution order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRand, ProbeGuard, MustCheck, HotPath}
}

// analyzerNames returns the set of valid analyzer names for directive
// validation.
func analyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// directive is one parsed //syncsim:allowlist comment.
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
	// funcScope, when non-nil, is the line range of the annotated
	// function: the directive sits in a function's doc comment and
	// suppresses every matching finding in its body.
	funcScope *[2]int
	// fileScope marks a directive placed above the package clause: it
	// suppresses every matching finding in the file. The coarse scope
	// exists for files whose whole point trips one rule — the tracelake
	// decode pool's worker goroutines against detrand — so the reason
	// is stated once instead of per line.
	fileScope bool
	used      bool
}

const (
	allowlistPrefix = "syncsim:allowlist"
	hotpathPrefix   = "syncsim:hotpath"
)

// parseDirectives collects the allowlist directives of one file and
// resolves function-scoped ones against the file's declarations.
// Malformed directives become diagnostics immediately.
func parseDirectives(fset *token.FileSet, f *ast.File, valid map[string]bool) ([]*directive, []Diagnostic) {
	var dirs []*directive
	var diags []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue
			}
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, allowlistPrefix)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				diags = append(diags, Diagnostic{
					Pos:      pos,
					Analyzer: "directive",
					Message:  "malformed //syncsim:allowlist: want \"//syncsim:allowlist <analyzer> <reason>\"",
				})
				continue
			}
			if !valid[fields[0]] {
				diags = append(diags, Diagnostic{
					Pos:      pos,
					Analyzer: "directive",
					Message:  fmt.Sprintf("//syncsim:allowlist names unknown analyzer %q", fields[0]),
				})
				continue
			}
			dirs = append(dirs, &directive{
				pos:      pos,
				analyzer: fields[0],
				reason:   strings.Join(fields[1:], " "),
			})
		}
	}
	// A directive above the package clause suppresses across the whole
	// file.
	pkgLine := fset.Position(f.Package).Line
	for _, d := range dirs {
		if d.pos.Line < pkgLine {
			d.fileScope = true
		}
	}
	// A directive inside a function's doc comment suppresses across the
	// whole body.
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil || fd.Body == nil {
			continue
		}
		start := fset.Position(fd.Doc.Pos()).Line
		end := fset.Position(fd.Body.End()).Line
		for _, d := range dirs {
			if d.pos.Line >= start && d.pos.Line < fset.Position(fd.Body.Pos()).Line {
				d.funcScope = &[2]int{start, end}
			}
		}
	}
	return dirs, diags
}

// suppresses reports whether directive d covers a finding from analyzer
// at line. Statement scope is the directive's own line or the line
// directly below it; function scope covers the annotated body; file
// scope (directive above the package clause) covers the whole file —
// the caller has already matched the filename.
func (d *directive) suppresses(analyzer string, line int) bool {
	if d.analyzer != analyzer {
		return false
	}
	if d.fileScope {
		return true
	}
	if d.funcScope != nil {
		return line >= d.funcScope[0] && line <= d.funcScope[1]
	}
	return line == d.pos.Line || line == d.pos.Line+1
}

// hasHotpathDirective reports whether a //syncsim:hotpath line appears
// in the given comment group.
func hasHotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		if strings.TrimSpace(text) == hotpathPrefix {
			return true
		}
	}
	return false
}

// HotRange is a //syncsim:hotpath function's source extent, consumed by
// scripts/check_hotpath_allocs.sh to map escape-analysis output back to
// annotated bodies.
type HotRange struct {
	File       string // module-root-relative path
	Start, End int    // 1-based line range including the declaration
	Name       string // (*Recv).Name or Name
}

// newPass builds the shared analysis state for one package: the parent
// map every ancestor walk uses and the hotpath function set.
func newPass(l *Loader, pkg *Package) *Pass {
	p := &Pass{
		Loader:  l,
		Pkg:     pkg,
		Det:     Deterministic(l.ModPath, pkg.Path),
		parents: make(map[ast.Node]ast.Node),
	}
	for _, f := range pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			if len(stack) > 0 {
				p.parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hasHotpathDirective(fd.Doc) && fd.Body != nil {
				p.hot = append(p.hot, hotFunc{decl: fd, file: f})
			}
		}
	}
	return p
}

// parent returns the syntactic parent of n (nil at file scope).
func (p *Pass) parent(n ast.Node) ast.Node { return p.parents[n] }

// enclosingFunc returns the FuncDecl whose body contains n, walking
// through any function literals.
func (p *Pass) enclosingFunc(n ast.Node) *ast.FuncDecl {
	for cur := p.parent(n); cur != nil; cur = p.parent(cur) {
		if fd, ok := cur.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// funcName renders a FuncDecl's name as (*Recv).Name or Name.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// HotRanges returns the //syncsim:hotpath function extents of pkgs,
// with file paths relative to the module root.
func HotRanges(l *Loader, pkgs []*Package) []HotRange {
	var out []HotRange
	for _, pkg := range pkgs {
		pass := newPass(l, pkg)
		for _, h := range pass.hot {
			start := l.Fset.Position(h.decl.Pos())
			end := l.Fset.Position(h.decl.End())
			file := start.Filename
			if rel, err := relToModRoot(l.ModRoot, file); err == nil {
				file = rel
			}
			out = append(out, HotRange{File: file, Start: start.Line, End: end.Line, Name: funcName(h.decl)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Start < out[j].Start
	})
	return out
}

func relToModRoot(root, file string) (string, error) {
	rel, err := filepathRel(root, file)
	if err != nil {
		return "", err
	}
	return rel, nil
}

// RunPackage runs the full suite over one package, applies allowlist
// directives, and reports unused directives so every suppression stays
// tied to a live finding.
func RunPackage(l *Loader, pkg *Package) []Diagnostic {
	pass := newPass(l, pkg)
	valid := analyzerNames()

	var dirs []*directive
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ds, dd := parseDirectives(l.Fset, f, valid)
		dirs = append(dirs, ds...)
		diags = append(diags, dd...)
	}

	for _, a := range Analyzers() {
		for _, f := range a.Run(pass) {
			pos := l.Fset.Position(f.Pos)
			suppressed := false
			for _, d := range dirs {
				if d.pos.Filename == pos.Filename && d.suppresses(a.Name, pos.Line) {
					d.used = true
					suppressed = true
				}
			}
			if !suppressed {
				diags = append(diags, Diagnostic{Pos: pos, Analyzer: a.Name, Message: f.Message})
			}
		}
	}
	for _, d := range dirs {
		if !d.used {
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: "directive",
				Message:  fmt.Sprintf("//syncsim:allowlist %s suppresses no finding; delete it", d.analyzer),
			})
		}
	}
	sortDiags(diags)
	return diags
}

// Run loads the packages named by patterns and runs the suite over each,
// returning all diagnostics with positions relative to the module root.
func Run(l *Loader, patterns []string) ([]Diagnostic, error) {
	pkgs, err := l.Load(patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, RunPackage(l, pkg)...)
	}
	for i := range diags {
		if rel, err := filepathRel(l.ModRoot, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}
	sortDiags(diags)
	return diags, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
