package harness_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"optsync/internal/campaign"
	"optsync/internal/experiment"
	"optsync/internal/harness"
)

// The claim each experiment table must show. The golden tables and the
// store resume are pinned in internal/experiment.

// colIndex returns the index of a column by name.
func colIndex(t *testing.T, tb *harness.Table, name string) int {
	t.Helper()
	for i, c := range tb.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("table %q has no column %q (have %v)", tb.Title, name, tb.Columns)
	return -1
}

func TestT1AllRowsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	tb := firstTable(t, "T1")
	skew := colIndex(t, tb, "skew")
	spread := colIndex(t, tb, "spread")
	if len(tb.Rows) != 6*3*3 {
		t.Fatalf("T1 rows = %d, want 54", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[skew] != "ok" || row[spread] != "ok" {
			t.Fatalf("T1 row violated bound: %v", row)
		}
	}
}

func TestT2AllRowsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	tb := firstTable(t, "T2")
	skew := colIndex(t, tb, "skew")
	for _, row := range tb.Rows {
		if row[skew] != "ok" {
			t.Fatalf("T2 row violated bound: %v", row)
		}
	}
}

func TestT3AccuracySeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("long horizons")
	}
	tb := firstTable(t, "T3")
	within := colIndex(t, tb, "within")
	algo := colIndex(t, tb, "algo")
	attack := colIndex(t, tb, "attack")
	for _, row := range tb.Rows {
		attacked := row[attack] == string(harness.AttackBias)
		switch {
		case !attacked && row[within] != "ok":
			t.Fatalf("un-attacked run escaped its envelope: %v", row)
		case attacked && row[within] != "VIOLATED":
			t.Fatalf("bias attack did not register as an accuracy violation: %v", row)
		}
	}
	// CNV must degrade more than FTM under the same attack.
	var cnvHi, ftmHi float64
	hi := colIndex(t, tb, "env_hi")
	for _, row := range tb.Rows {
		if row[attack] != string(harness.AttackBias) {
			continue
		}
		v, err := strconv.ParseFloat(row[hi], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch harness.Algorithm(row[algo]) {
		case harness.AlgoCNV:
			cnvHi = v
		case harness.AlgoFTM:
			ftmHi = v
		}
	}
	if cnvHi <= ftmHi {
		t.Fatalf("CNV (%v) should degrade more than FTM (%v)", cnvHi, ftmHi)
	}
}

func TestT4BoundaryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	checkBoundary(t, firstTable(t, "T4"))
}

func TestT5BoundaryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	checkBoundary(t, firstTable(t, "T5"))
}

// checkBoundary asserts the resilience-boundary shape: within resilience
// everything ok, one fault beyond everything broken.
func checkBoundary(t *testing.T, tb *harness.Table) {
	t.Helper()
	fCfg := colIndex(t, tb, "f_cfg")
	fAct := colIndex(t, tb, "f_actual")
	period := colIndex(t, tb, "period")
	acc := colIndex(t, tb, "accuracy")
	for _, row := range tb.Rows {
		within := row[fCfg] == row[fAct]
		if within && (row[period] != "ok" || row[acc] != "ok") {
			t.Fatalf("within-resilience row broken: %v", row)
		}
		if !within && (row[period] == "ok" || row[acc] == "ok") {
			t.Fatalf("beyond-resilience row not broken: %v", row)
		}
	}
}

func TestT6ZeroViolations(t *testing.T) {
	tb := firstTable(t, "T6")
	miss := colIndex(t, tb, "accept_violations")
	forged := colIndex(t, tb, "forged_accepts")
	spread := colIndex(t, tb, "max_spread_s")
	bound := colIndex(t, tb, "relay_bound_s")
	for _, row := range tb.Rows {
		if row[miss] != "0" || row[forged] != "0" {
			t.Fatalf("primitive property violated: %v", row)
		}
		s, _ := strconv.ParseFloat(row[spread], 64)
		b, _ := strconv.ParseFloat(row[bound], 64)
		if s > b {
			t.Fatalf("relay spread %v > bound %v", s, b)
		}
	}
}

func TestT7QuadraticShape(t *testing.T) {
	tb := firstTable(t, "T7")
	ratio := colIndex(t, tb, "ratio_to_n2")
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[ratio], 64)
		if err != nil {
			t.Fatal(err)
		}
		// Theta(n^2): the per-n^2 ratio must stay within a small constant
		// band across the sweep.
		if v < 0.3 || v > 3 {
			t.Fatalf("msgs/round not Theta(n^2): %v", row)
		}
	}
}

func TestT8ScaleAllWithin(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	tb := firstTable(t, "T8")
	within := colIndex(t, tb, "within")
	for _, row := range tb.Rows {
		if row[within] != "ok" {
			t.Fatalf("scale row violated bound: %v", row)
		}
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestF1SawtoothHasResyncDrops(t *testing.T) {
	tb := firstTable(t, "F1")
	if len(tb.Rows) < 50 {
		t.Fatalf("trace too short: %d samples", len(tb.Rows))
	}
	// The trace must contain both growth and drops (the sawtooth).
	var ups, downs int
	prev := -1.0
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 {
			if v > prev {
				ups++
			}
			if v < prev {
				downs++
			}
		}
		prev = v
	}
	if ups < 10 || downs < 5 {
		t.Fatalf("no sawtooth: %d ups, %d downs", ups, downs)
	}
}

func TestF2AllWithinBound(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tb := firstTable(t, "F2")
	within := colIndex(t, tb, "within")
	for _, row := range tb.Rows {
		if row[within] != "ok" {
			t.Fatalf("F2 row violated: %v", row)
		}
	}
}

func TestF3LinearVsFlatSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tb := firstTable(t, "F3")
	stCol := colIndex(t, tb, "st_auth_skew_s")
	ftmCol := colIndex(t, tb, "ftm_skew_s")
	first := tb.Rows[0]
	last := tb.Rows[len(tb.Rows)-1]
	stFirst, _ := strconv.ParseFloat(first[stCol], 64)
	stLast, _ := strconv.ParseFloat(last[stCol], 64)
	ftmFirst, _ := strconv.ParseFloat(first[ftmCol], 64)
	ftmLast, _ := strconv.ParseFloat(last[ftmCol], 64)
	// d grew 50x with u fixed. Under the selective-signing attack ST's
	// skew grows with d (relay path costs one full delay); FTM's tracks
	// only the reading error u.
	if stLast < 10*stFirst {
		t.Fatalf("ST skew not growing with d under selective signing: %v -> %v", stFirst, stLast)
	}
	if ftmLast > 3*ftmFirst {
		t.Fatalf("FTM skew should be ~flat in d: %v -> %v", ftmFirst, ftmLast)
	}
	boundCol := colIndex(t, tb, "st_bound_s")
	bFirst, _ := strconv.ParseFloat(first[boundCol], 64)
	bLast, _ := strconv.ParseFloat(last[boundCol], 64)
	if bLast < 40*bFirst {
		t.Fatalf("ST bound not linear in d: %v -> %v", bFirst, bLast)
	}
	if stLast < 5*ftmLast {
		t.Fatalf("at large d, ST skew (%v) should far exceed FTM (%v)", stLast, ftmLast)
	}
}

func TestF4JoinerSynchronizes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tb := firstTable(t, "F4")
	within := colIndex(t, tb, "within")
	for _, row := range tb.Rows {
		if row[within] != "ok" {
			t.Fatalf("joiner failed to synchronize: %v", row)
		}
	}
}

func TestF5RatesWithinEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	tb := firstTable(t, "F5")
	// One row per correct node: n=7 at f=3 leaves four.
	if len(tb.Rows) != 4 {
		t.Fatalf("F5 rows = %d, want one per correct node (4)", len(tb.Rows))
	}
	rate := colIndex(t, tb, "rate")
	// The envelope is the note's "[lo, hi]".
	if len(tb.Notes) == 0 {
		t.Fatal("missing envelope note")
	}
	note := tb.Notes[0]
	open, end := strings.Index(note, "["), strings.Index(note, "]")
	if open < 0 || end < open {
		t.Fatalf("note malformed: %q", note)
	}
	bounds := strings.Split(note[open+1:end], ", ")
	if len(bounds) != 2 {
		t.Fatalf("note malformed: %q", note)
	}
	lo, errLo := strconv.ParseFloat(bounds[0], 64)
	hi, errHi := strconv.ParseFloat(bounds[1], 64)
	if errLo != nil || errHi != nil || lo >= hi {
		t.Fatalf("note malformed: %q", note)
	}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[rate], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < lo || v > hi {
			t.Fatalf("node %s rate %v outside the envelope [%v, %v]", row[0], v, lo, hi)
		}
	}
}

func TestF7ColdStartRows(t *testing.T) {
	tb := firstTable(t, "F7")
	within := colIndex(t, tb, "within")
	synced := colIndex(t, tb, "synchronized")
	for _, row := range tb.Rows {
		if row[within] != "ok" || row[synced] != "3/3" {
			t.Fatalf("cold start failed: %v", row)
		}
	}
}

func TestA1RelaySeparation(t *testing.T) {
	tb := firstTable(t, "A1")
	spread := colIndex(t, tb, "max_spread_s")
	on, _ := strconv.ParseFloat(tb.Rows[0][spread], 64)
	off, _ := strconv.ParseFloat(tb.Rows[1][spread], 64)
	if off <= on {
		t.Fatalf("relay ablation: spread %v (off) <= %v (on)", off, on)
	}
}

func TestA2AlphaTradeoff(t *testing.T) {
	tb := firstTable(t, "A2")
	back := colIndex(t, tb, "backward_jumps")
	rate := colIndex(t, tb, "rate_hi")
	firstBack, _ := strconv.Atoi(tb.Rows[0][back])
	lastBack, _ := strconv.Atoi(tb.Rows[len(tb.Rows)-1][back])
	if firstBack <= lastBack {
		t.Fatalf("backward jumps should fall as alpha grows: %d -> %d", firstBack, lastBack)
	}
	firstRate, _ := strconv.ParseFloat(tb.Rows[0][rate], 64)
	lastRate, _ := strconv.ParseFloat(tb.Rows[len(tb.Rows)-1][rate], 64)
	if lastRate <= firstRate {
		t.Fatalf("rate should rise as alpha grows: %v -> %v", firstRate, lastRate)
	}
}

func TestA3SlewMonotone(t *testing.T) {
	tb := firstTable(t, "A3")
	steps := colIndex(t, tb, "backward_clock_steps")
	jump, _ := strconv.Atoi(tb.Rows[0][steps])
	slew, _ := strconv.Atoi(tb.Rows[1][steps])
	if jump == 0 {
		t.Fatal("jump mode showed no backward steps; ablation vacuous")
	}
	if slew != 0 {
		t.Fatalf("slewed mode stepped backward %d times", slew)
	}
}

func TestF6MonotoneBound(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tb := firstTable(t, "F6")
	within := colIndex(t, tb, "within")
	bound := colIndex(t, tb, "Dmax_bound_s")
	prev := 0.0
	for _, row := range tb.Rows {
		if row[within] != "ok" {
			t.Fatalf("F6 row violated: %v", row)
		}
		b, _ := strconv.ParseFloat(row[bound], 64)
		if b <= prev {
			t.Fatalf("bound not increasing in P: %v", row)
		}
		prev = b
	}
}

// firstTable runs the experiment with the given id and returns its first
// table, failing the test on error — experiment specs are known-good.
func firstTable(t *testing.T, id string) *harness.Table {
	t.Helper()
	e, ok := experiment.Find(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	tables, err := e.Run(context.Background(), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("experiment produced no tables")
	}
	return tables[0]
}

// assertScaleTable checks the shared L1/L2 contract: every row completed
// at least (horizon - 1) rounds — the cluster keeps resynchronizing at
// scale — with a finite, positive skew.
func assertScaleTable(t *testing.T, tb *harness.Table, wantRows int) {
	t.Helper()
	if len(tb.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), wantRows)
	}
	rounds := colIndex(t, tb, "complete_rounds")
	skew := colIndex(t, tb, "max_skew_s")
	horizon := colIndex(t, tb, "horizon_s")
	for _, row := range tb.Rows {
		r, err := strconv.Atoi(row[rounds])
		if err != nil {
			t.Fatalf("bad complete_rounds %q: %v", row[rounds], err)
		}
		h, err := strconv.ParseFloat(row[horizon], 64)
		if err != nil {
			t.Fatalf("bad horizon %q: %v", row[horizon], err)
		}
		if float64(r) < h-1 {
			t.Fatalf("scaling run stalled: %d rounds over %v s horizon: %v", r, h, row)
		}
		s, err := strconv.ParseFloat(row[skew], 64)
		if err != nil || s <= 0 || s > 1 {
			t.Fatalf("implausible max skew %q: %v", row[skew], row)
		}
	}
}

func TestL1ScaleCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	assertScaleTable(t, firstTable(t, "L1"), 2)
}

func TestL2ScaleCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	assertScaleTable(t, firstTable(t, "L2"), 1)
}

func TestL3ScaleCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	assertScaleTable(t, firstTable(t, "L3"), 1)
}

func TestFindScenario(t *testing.T) {
	if _, ok := experiment.Find("T1"); !ok {
		t.Fatal("T1 not found")
	}
	if _, ok := experiment.Find("ZZ"); ok {
		t.Fatal("ZZ found")
	}
	ids := map[string]bool{}
	for _, s := range experiment.All() {
		if ids[s.ID] {
			t.Fatalf("duplicate scenario id %s", s.ID)
		}
		ids[s.ID] = true
		if s.Run == nil || s.Title == "" {
			t.Fatalf("scenario %s incomplete", s.ID)
		}
	}
	for _, want := range []string{
		"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
		"F1", "F2", "F3", "F4", "F5", "F6", "F7",
		"A1", "A2", "A3",
		"W1", "W2", "W3", "L1", "L2", "L3",
	} {
		if !ids[want] {
			t.Fatalf("scenario %s missing", want)
		}
	}
}
