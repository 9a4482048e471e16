package optsync

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"optsync/internal/core/bounds"
)

func testParams(t testing.TB, n int, v Variant) Params {
	t.Helper()
	p := Params{
		N: n, F: v.MaxFaults(n), Variant: v,
		Rho:  Rho(1e-4),
		DMin: 0.002, DMax: 0.01,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func testSpecs(t testing.TB, k int) []Spec {
	p := testParams(t, 5, Auth)
	specs := make([]Spec, k)
	for i := range specs {
		specs[i] = Spec{
			Algo: AlgoAuth, Params: p,
			FaultyCount: p.F, Attack: AttackSilent,
			Horizon: 8, Seed: int64(i + 1),
		}
	}
	return specs
}

func TestRunUnknownNamesError(t *testing.T) {
	p := testParams(t, 3, Auth)
	if _, err := Run(context.Background(), Spec{Algo: "nope", Params: p, Seed: 1}); err == nil {
		t.Fatal("unknown algorithm accepted")
	} else if !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("error does not name the offender: %v", err)
	}
	if _, err := Run(context.Background(), Spec{
		Algo: AlgoAuth, Params: p, FaultyCount: 1, Attack: "nope", Seed: 1,
	}); err == nil {
		t.Fatal("unknown attack accepted")
	}
	// Attack/algorithm mismatches are errors too, not panics.
	if _, err := Run(context.Background(), Spec{
		Algo: AlgoAuth, Params: p, FaultyCount: 1, Attack: AttackBias, Seed: 1,
	}); err == nil {
		t.Fatal("bias attack on auth accepted")
	}
}

// runWithin runs spec on its own goroutine and returns Run's error, or
// fails the test when Run panics — recover names the panic — or does not
// return within five seconds.
func runWithin(t *testing.T, name string, spec Spec) error {
	t.Helper()
	type outcome struct {
		err   error
		panic any
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{panic: r}
			}
		}()
		_, err := Run(context.Background(), spec)
		done <- outcome{err: err}
	}()
	select {
	case o := <-done:
		if o.panic != nil {
			t.Errorf("%s: Run panicked: %v", name, o.panic)
		}
		return o.err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Run did not return within 5 s", name)
		return nil
	}
}

// TestRunRejectsUnrunnableSpecs: a sampling interval that never lets
// simulated time advance and a horizon no run can reach are errors. Before
// the check the first and third spec never returned and the second
// panicked, so each runs under a deadline.
func TestRunRejectsUnrunnableSpecs(t *testing.T) {
	base := testSpecs(t, 1)[0]
	for name, mutate := range map[string]func(*Spec){
		"negative SampleEvery": func(s *Spec) { s.SampleEvery = -0.05 },
		"NaN SampleEvery":      func(s *Spec) { s.SampleEvery = math.NaN() },
		"infinite SampleEvery": func(s *Spec) { s.SampleEvery = math.Inf(1) },
		"NaN Horizon":          func(s *Spec) { s.Horizon = math.NaN() },
		"infinite Horizon":     func(s *Spec) { s.Horizon = math.Inf(1) },
	} {
		spec := base
		mutate(&spec)
		if runWithin(t, name, spec) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunRejectsMalformedSpecs: a spec whose numbers are not finite,
// ordered and in range is an error from Run. Most entries used to panic
// below Run (an inverted delay policy, a negative slice length, a NaN
// clock offset indexing before the first clock segment, an alpha outside
// the period), an infinite drift bound or initial skew hung, and the rest
// ran on meaningless numbers. These are well-formedness checks only: a
// spec outside the resilience bound is a legitimate experiment and still
// runs.
func TestRunRejectsMalformedSpecs(t *testing.T) {
	base := Spec{
		Algo: AlgoAuth, Params: testParams(t, 7, Auth),
		FaultyCount: 2, Attack: AttackSilent, Horizon: 4, Seed: 1,
	}
	nan, inf := math.NaN(), math.Inf(1)
	cnv := func(s *Spec) { s.Algo, s.Params.Variant, s.Attack = AlgoCNV, Primitive, AttackBias }
	for _, tc := range []struct {
		name   string
		mutate func(*Spec)
	}{
		{"Alpha = Period", func(s *Spec) { s.Params.Alpha = s.Params.Period }},
		{"Alpha > Period", func(s *Spec) { s.Params.Alpha = 2 * s.Params.Period }},
		{"negative Alpha", func(s *Spec) { s.Params.Alpha = -0.001 }},
		{"NaN Alpha", func(s *Spec) { s.Params.Alpha = nan }},
		{"DMin > DMax", func(s *Spec) { s.Params.DMin, s.Params.DMax = 0.01, 0.002 }},
		{"negative DMin", func(s *Spec) { s.Params.DMin = -0.001 }},
		{"NaN DMin", func(s *Spec) { s.Params.DMin = nan }},
		{"+Inf DMax", func(s *Spec) { s.Params.DMax = inf }},
		{"-Inf DMax", func(s *Spec) { s.Params.DMax = -inf }},
		{"NaN DMax", func(s *Spec) { s.Params.DMax = nan }},
		{"NaN InitialSkew", func(s *Spec) { s.Params.InitialSkew = nan }},
		{"+Inf InitialSkew", func(s *Spec) { s.Params.InitialSkew = inf }},
		{"negative InitialSkew", func(s *Spec) { s.Params.InitialSkew = -1 }},
		{"N = 0", func(s *Spec) { s.Params.N, s.FaultyCount = 0, 0 }},
		{"negative N", func(s *Spec) { s.Params.N, s.FaultyCount = -3, 0 }},
		{"negative F", func(s *Spec) { s.Params.F = -1 }},
		{"FaultyCount > N", func(s *Spec) { s.FaultyCount = 8 }},
		{"negative FaultyCount", func(s *Spec) { s.FaultyCount = -1 }},
		{"NaN Rho", func(s *Spec) { s.Params.Rho = Rho(nan) }},
		{"+Inf Rho", func(s *Spec) { s.Params.Rho = Rho(inf) }},
		{"negative Rho", func(s *Spec) { s.Params.Rho = -1e-4 }},
		{"NaN Period", func(s *Spec) { s.Params.Period, s.SampleEvery = nan, 0.05 }},
		{"NaN Partition.At", func(s *Spec) { s.Partitions = []Partition{{At: nan, Heal: 2, LeftSize: 3}} }},
		{"+Inf Partition.Heal", func(s *Spec) { s.Partitions = []Partition{{At: 1, Heal: inf, LeftSize: 3}} }},
		{"NaN StartAt", func(s *Spec) { s.StartAt = map[int]float64{1: nan} }},
		{"StartAt of no node", func(s *Spec) { s.StartAt = map[int]float64{7: 1} }},
		{"NaN ClockOffset", func(s *Spec) { s.ClockOffset = map[int]float64{1: nan} }},
		{"SlewRate 1", func(s *Spec) { s.SlewRate = 1 }},
		{"NaN SlewRate", func(s *Spec) { s.SlewRate = nan }},
		{"NaN RushInterval", func(s *Spec) { s.Attack, s.FaultyCount, s.RushInterval = AttackRush, 4, nan }},
		{"NaN Bias", func(s *Spec) { cnv(s); s.Bias = nan }},
		{"NaN CNVDelta", func(s *Spec) { cnv(s); s.CNVDelta = nan }},
		{"negative Window", func(s *Spec) { cnv(s); s.Window = -1 }},
	} {
		spec := base
		tc.mutate(&spec)
		if err := runWithin(t, tc.name, spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Outside the resilience bound is not malformed: f >= n/2 signed faults
	// run (and are expected to break agreement).
	beyond := base
	beyond.Params.F, beyond.FaultyCount = 4, 4
	if err := runWithin(t, "f beyond resilience", beyond); err != nil {
		t.Errorf("a spec outside the resilience bound was refused: %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	builder := func(Spec) (Protocol, error) { return nil, nil }
	attack := func(Spec, AttackEnv) (Protocol, error) { return nil, nil }
	mustPanic("dup protocol", func() { RegisterProtocol(AlgoAuth, builder) })
	mustPanic("dup attack", func() { RegisterAttack(AttackSilent, attack) })
	mustPanic("empty protocol name", func() { RegisterProtocol("", builder) })
	mustPanic("empty attack name", func() { RegisterAttack("", attack) })
	mustPanic("nil protocol builder", func() { RegisterProtocol("x-nil", nil) })
	mustPanic("nil attack builder", func() { RegisterAttack("x-nil", nil) })
}

func TestRegistryListsBuiltins(t *testing.T) {
	protos := Protocols()
	for _, want := range []Algorithm{AlgoAuth, AlgoPrim, AlgoCNV, AlgoFTM} {
		found := false
		for _, got := range protos {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("protocol %q not registered (have %v)", want, protos)
		}
	}
	attacks := Attacks()
	for _, want := range []Attack{AttackNone, AttackSilent, AttackCrashMid,
		AttackRush, AttackBias, AttackEquivocate, AttackSelective} {
		found := false
		for _, got := range attacks {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("attack %q not registered (have %v)", want, attacks)
		}
	}
}

// TestRegisterCustomProtocol registers a protocol through the public
// extension point and runs it end to end.
func TestRegisterCustomProtocol(t *testing.T) {
	RegisterProtocol("test-wrapped-auth", func(spec Spec) (Protocol, error) {
		inner := spec
		inner.Algo = AlgoAuth
		return NewProtocol(inner)
	})
	p := testParams(t, 5, Auth)
	res, err := Run(context.Background(), Spec{
		Algo: "test-wrapped-auth", Params: p,
		FaultyCount: p.F, Attack: AttackSilent,
		Horizon: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompleteRounds == 0 {
		t.Fatal("custom-registered protocol completed no rounds")
	}
}

// TestRunBatchDeterministicAcrossWorkers is the core parallelism
// guarantee: same seeds, 1 worker vs 8 workers, byte-identical results
// and byte-identical sink output.
func TestRunBatchDeterministicAcrossWorkers(t *testing.T) {
	specs := testSpecs(t, 10)

	runWith := func(workers int) ([]byte, []byte) {
		var csvBuf bytes.Buffer
		results, err := RunBatch(context.Background(), specs,
			WithWorkers(workers), WithSink(NewCSVSink(&csvBuf)))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		return blob, csvBuf.Bytes()
	}

	serial, serialCSV := runWith(1)
	parallel, parallelCSV := runWith(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("results differ between 1 and 8 workers")
	}
	if !bytes.Equal(serialCSV, parallelCSV) {
		t.Fatal("sink output differs between 1 and 8 workers")
	}
}

func TestRunBatchOrderAndSeeds(t *testing.T) {
	specs := testSpecs(t, 3)
	results, err := RunBatch(context.Background(), specs,
		WithWorkers(4), WithSeeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	for i, res := range results {
		wantSeed := specs[i/2].Seed + int64(i%2)
		if res.Spec.Seed != wantSeed {
			t.Fatalf("result %d has seed %d, want %d", i, res.Spec.Seed, wantSeed)
		}
	}
}

func TestRunBatchProgress(t *testing.T) {
	specs := testSpecs(t, 4)
	var events []ProgressEvent
	_, err := RunBatch(context.Background(), specs,
		WithWorkers(2),
		WithProgress(func(ev ProgressEvent) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(specs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(specs))
	}
	for i, ev := range events {
		if ev.Completed != i+1 || ev.Total != len(specs) {
			t.Fatalf("event %d: %d/%d", i, ev.Completed, ev.Total)
		}
	}
}

func TestRunBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBatch(ctx, testSpecs(t, 4)); err == nil {
		t.Fatal("cancelled batch reported success")
	}
	if _, err := Run(ctx, testSpecs(t, 1)[0]); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

// failingSink errors on its first Write.
type failingSink struct{ writes int }

func (s *failingSink) Write(Result) error {
	s.writes++
	return errSinkBroken
}
func (s *failingSink) Flush() error { return nil }

var errSinkBroken = errors.New("sink broken")

func TestRunBatchSinkErrorCancelsRemainingRuns(t *testing.T) {
	specs := testSpecs(t, 8)
	var completed int
	_, err := RunBatch(context.Background(), specs,
		WithWorkers(1),
		WithSink(&failingSink{}),
		WithProgress(func(ProgressEvent) { completed++ }))
	if !errors.Is(err, errSinkBroken) {
		t.Fatalf("got %v, want the sink error", err)
	}
	if completed == len(specs) {
		t.Fatal("sink failure on the first result did not cancel the remaining runs")
	}
}

func TestRunFlushesHealthySinksOnEmitError(t *testing.T) {
	var csvBuf bytes.Buffer
	healthy := NewCSVSink(&csvBuf)
	_, err := Run(context.Background(), testSpecs(t, 1)[0],
		WithSink(healthy), WithSink(&failingSink{}))
	if !errors.Is(err, errSinkBroken) {
		t.Fatalf("got %v, want the sink error", err)
	}
	if csvBuf.Len() == 0 {
		t.Fatal("healthy sink's buffered output was lost on another sink's error")
	}
}

func TestRunBatchUnknownSpecFails(t *testing.T) {
	specs := testSpecs(t, 3)
	specs[1].Algo = "nope"
	if _, err := RunBatch(context.Background(), specs, WithWorkers(2)); err == nil {
		t.Fatal("batch with malformed spec reported success")
	}
}

func TestSpecOptions(t *testing.T) {
	spec := testSpecs(t, 1)[0]
	res, err := Run(context.Background(), spec,
		WithSeed(42), WithHorizon(6), WithKeepSeries())
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Seed != 42 || res.Spec.Horizon != 6 {
		t.Fatalf("options not applied: %+v", res.Spec)
	}
	if len(res.Series) == 0 || len(res.Pulses) == 0 {
		t.Fatal("KeepSeries retained no series/pulses")
	}
}

func TestSinks(t *testing.T) {
	specs := testSpecs(t, 2)
	var tbl, csvBuf, jsonBuf bytes.Buffer
	_, err := RunBatch(context.Background(), specs,
		WithSink(NewTableSink(&tbl)),
		WithSink(NewCSVSink(&csvBuf)),
		WithSink(NewJSONSink(&jsonBuf)))
	if err != nil {
		t.Fatal(err)
	}

	if !strings.Contains(tbl.String(), "max_skew_s") || !strings.Contains(tbl.String(), "st-auth") {
		t.Fatalf("table sink output malformed:\n%s", tbl.String())
	}

	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 results
		t.Fatalf("csv has %d rows, want 3", len(rows))
	}
	if rows[0][1] != "algo" || rows[1][1] != "st-auth" {
		t.Fatalf("csv malformed: %v", rows[:2])
	}

	dec := json.NewDecoder(&jsonBuf)
	var decoded int
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec["algo"] != "st-auth" || rec["within_skew"] != true {
			t.Fatalf("json record malformed: %v", rec)
		}
		decoded++
	}
	if decoded != 2 {
		t.Fatalf("json sink wrote %d records, want 2", decoded)
	}
}

// TestPublicAPIMatchesHarness pins the facade to the engine: a run through
// the public API equals the classic harness path on the same spec.
func TestPublicAPIMatchesHarness(t *testing.T) {
	spec := testSpecs(t, 1)[0]
	got, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Params
	if got.Spec.Params.N != p.N || got.SkewBound != p.DmaxWithStart() {
		t.Fatalf("facade drift: %+v", got)
	}
	if !got.WithinSkew || got.CompleteRounds == 0 {
		t.Fatalf("healthy run misreported: %+v", got)
	}
	if _, ok := interface{}(p).(bounds.Params); !ok {
		t.Fatal("Params alias broken")
	}
}
