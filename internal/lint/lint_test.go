package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"optsync/internal/lint"
)

// The fixture tests pin each analyzer's behavior against known-bad and
// known-good code under internal/lint/testdata. Expectations live next
// to the code they describe as `// want <analyzer> "<substring>"`
// comments; a fixture run must produce exactly the wanted diagnostics —
// same file, same line, matching analyzer and message — and nothing
// else, so both false negatives and false positives fail loudly.

// moduleRoot walks up from the test's working directory to the
// directory containing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			t.Fatalf("no go.mod above %s", dir)
		}
	}
}

// want is one expected diagnostic, anchored to the line its comment
// sits on.
type want struct {
	file     string // base name
	line     int
	analyzer string
	substr   string
}

var wantRe = regexp.MustCompile(`// want (\w+) "([^"]+)"`)

// parseWants scans a fixture directory's Go files for want comments.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants = append(wants, want{file: e.Name(), line: i + 1, analyzer: m[1], substr: m[2]})
			}
		}
	}
	return wants
}

// runFixture loads one testdata package under a synthetic import path
// (which controls analyzer scoping) and runs the full suite over it.
func runFixture(t *testing.T, fixture, asPath string) []lint.Diagnostic {
	t.Helper()
	root := moduleRoot(t)
	ld, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.LoadDir(filepath.Join(root, "internal", "lint", "testdata", fixture), asPath)
	if err != nil {
		t.Fatal(err)
	}
	return lint.RunPackage(ld, pkg)
}

// checkWants matches diagnostics against want comments one-to-one.
func checkWants(t *testing.T, diags []lint.Diagnostic, wants []want) {
	t.Helper()
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] {
				continue
			}
			if filepath.Base(d.Pos.Filename) == w.file && d.Pos.Line == w.line &&
				d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic: %s:%d: %s: ...%q...", w.file, w.line, w.analyzer, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestDetRandFixture(t *testing.T) {
	// Loaded under a path inside internal/sim so the deterministic-core
	// scoping applies.
	diags := runFixture(t, "detrand", "optsync/internal/sim/lintfixture")
	checkWants(t, diags, parseWants(t, filepath.Join(moduleRoot(t), "internal", "lint", "testdata", "detrand")))
}

func TestDetRandScopedToDeterministicCore(t *testing.T) {
	// The same fixture under a neutral path: every detrand want must go
	// silent (the fixture's probe emissions are guarded, so the other
	// analyzers are silent too). The fixture's one allowlist directive
	// then has nothing left to suppress, and the unused rule says so.
	diags := runFixture(t, "detrand", "optsync/lintfixture")
	unused := 0
	for _, d := range diags {
		if d.Analyzer == "directive" && strings.Contains(d.Message, "suppresses no finding") {
			unused++
			continue
		}
		t.Errorf("diagnostic outside the deterministic core: %s", d)
	}
	if unused != 1 {
		t.Errorf("%d unused-directive reports outside the deterministic core, want 1 (allowlistedSource)", unused)
	}
}

func TestDetRandFileScopedDirective(t *testing.T) {
	// A directive above the package clause suppresses the whole file
	// (pool.go's two goroutines go silent) but is still held to the
	// unused rule (unused.go's directive is reported). Loaded under a
	// deterministic-core path so detrand is in scope.
	diags := runFixture(t, "detrandpool", "optsync/internal/sim/lintfixturepool")
	checkWants(t, diags, parseWants(t, filepath.Join(moduleRoot(t), "internal", "lint", "testdata", "detrandpool")))
}

func TestProbeGuardFixture(t *testing.T) {
	diags := runFixture(t, "probeguard", "optsync/lintfixtures/probeguard")
	checkWants(t, diags, parseWants(t, filepath.Join(moduleRoot(t), "internal", "lint", "testdata", "probeguard")))
}

func TestMustCheckFixture(t *testing.T) {
	diags := runFixture(t, "mustcheck", "optsync/lintfixtures/mustcheck")
	checkWants(t, diags, parseWants(t, filepath.Join(moduleRoot(t), "internal", "lint", "testdata", "mustcheck")))
}

func TestHotPathFixture(t *testing.T) {
	diags := runFixture(t, "hotpath", "optsync/lintfixtures/hotpath")
	checkWants(t, diags, parseWants(t, filepath.Join(moduleRoot(t), "internal", "lint", "testdata", "hotpath")))
}

// TestRepoLintClean is the self-test the CI lint job relies on: the
// committed tree must produce zero diagnostics, so any regression —
// a deleted Bus.Active guard, a stray time.Now in internal/sim — fails
// here as well as in the standalone syncsimlint run.
func TestRepoLintClean(t *testing.T) {
	ld, err := lint.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(ld, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestEveryInternalPackageIsClassified fails when a directory under
// internal/ is neither in the deterministic core nor exempt from it for a
// named reason, so a package added or moved does not silently drop out of
// detrand's scope.
func TestEveryInternalPackageIsClassified(t *testing.T) {
	exempt := map[string]string{
		"internal/campaign": "orchestrates whole runs: worker pools, store files and their fsyncs",
		"internal/fabric":   "serves and leases cells over HTTP with real-time lease expiry and jittered backoff",
		"internal/lint":     "static analysis of the code; it never runs a simulation",
	}
	entries, err := os.ReadDir(filepath.Join(moduleRoot(t), "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rel := "internal/" + e.Name()
		det := lint.Deterministic("optsync", "optsync/"+rel)
		_, isExempt := exempt[rel]
		switch {
		case det && isExempt:
			t.Errorf("%s is both deterministic and exempt", rel)
		case !det && !isExempt:
			t.Errorf("%s is neither in lint.DeterministicPaths nor exempt with a reason", rel)
		}
	}
}

// TestHotRangesFloor pins the //syncsim:hotpath coverage contract that
// scripts/check_hotpath_allocs.sh enforces dynamically: at least five
// annotated functions across internal/sim and internal/network.
func TestHotRangesFloor(t *testing.T) {
	ld, err := lint.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	ranges := lint.HotRanges(ld, pkgs)
	core := 0
	for _, r := range ranges {
		file := filepath.ToSlash(r.File)
		if strings.HasPrefix(file, "internal/sim/") || strings.HasPrefix(file, "internal/network/") {
			core++
		}
		if r.End <= r.Start {
			t.Errorf("degenerate range for %s: %d-%d", r.Name, r.Start, r.End)
		}
	}
	if core < 5 {
		var list []string
		for _, r := range ranges {
			list = append(list, fmt.Sprintf("%s (%s:%d)", r.Name, r.File, r.Start))
		}
		t.Fatalf("want >= 5 hotpath functions in internal/sim + internal/network, got %d: %s",
			core, strings.Join(list, ", "))
	}
}
