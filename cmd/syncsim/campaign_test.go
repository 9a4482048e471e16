package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// campaignArgs builds a small, fast grid: 2 faulty counts x 2 seeds.
func campaignArgs(store string, extra ...string) []string {
	args := []string{
		"campaign", "-n", "5", "-horizon", "4",
		"-axis", "faulty=0,1", "-seeds", "2",
	}
	if store != "" {
		args = append(args, "-store", store)
	}
	return append(args, extra...)
}

func TestCampaignCLIGridAndResume(t *testing.T) {
	store := t.TempDir() + "/store"
	first, err := capture(t, func() error { return run(campaignArgs(store, "-csv")) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first, "group,cells,pass_rate,skew_mean") {
		t.Fatalf("unexpected CSV header:\n%s", first)
	}
	if lines := strings.Count(strings.TrimSpace(first), "\n"); lines != 2 {
		t.Fatalf("want header + 2 group rows, got:\n%s", first)
	}
	// Second pass serves from the store and renders byte-identical
	// aggregates.
	second, err := capture(t, func() error { return run(campaignArgs(store, "-csv")) })
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("resumed aggregates drifted:\n%s\nvs\n%s", first, second)
	}
}

func TestCampaignCLIJSONReport(t *testing.T) {
	out, err := capture(t, func() error { return run(campaignArgs("", "-json")) })
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Total    int `json:"total"`
		Executed int `json:"executed"`
		Groups   []struct {
			Key string `json:"key"`
		} `json:"groups"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	if report.Total != 4 || report.Executed != 4 || len(report.Groups) != 2 {
		t.Fatalf("report = %+v", report)
	}
}

func TestCampaignCLICells(t *testing.T) {
	out, err := capture(t, func() error { return run(campaignArgs("", "-cells", "-json")) })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 per-cell JSON lines, got %d:\n%s", len(lines), out)
	}
	var rec struct {
		Name string `json:"name"`
		Seed int64  `json:"seed"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.Name, "faulty=0") || rec.Seed != 2 {
		t.Fatalf("cell record = %+v", rec)
	}
}

// A campaign cell must simulate exactly what the equivalent single -run
// invocation simulates: derived conventions (alpha, initial skew, fault
// bounds) recompute per cell from the swept values, they are not frozen
// from the base flags.
func TestCampaignCellMatchesSingleRun(t *testing.T) {
	campOut, err := capture(t, func() error {
		return run([]string{"campaign", "-horizon", "8", "-axis", "dmax=0.018", "-cells", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	runOut, err := capture(t, func() error {
		return run([]string{"-run", "-horizon", "8", "-dmax", "0.018", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var cell, single map[string]any
	if err := json.Unmarshal([]byte(campOut), &cell); err != nil {
		t.Fatalf("bad campaign record %q: %v", campOut, err)
	}
	if err := json.Unmarshal([]byte(runOut), &single); err != nil {
		t.Fatalf("bad run record %q: %v", runOut, err)
	}
	delete(cell, "name") // the campaign labels its cells; -run does not
	delete(single, "name")
	if !reflect.DeepEqual(cell, single) {
		t.Fatalf("campaign cell diverged from -run on the same point:\n%v\nvs\n%v", cell, single)
	}
}

// Sweeping n re-derives the fault bound per cell (unless -f pins it).
func TestCampaignCLIRederivesFaultBound(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"campaign", "-horizon", "4", "-axis", "n=4,7", "-cells", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var fs []float64
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var rec struct {
			F float64 `json:"f"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		fs = append(fs, rec.F)
	}
	if len(fs) != 2 || fs[0] != 1 || fs[1] != 3 {
		t.Fatalf("fault bounds not re-derived per n: %v (want [1 3])", fs)
	}
}

// -f -1 and -faulty -1 are the flags' defaults, "maximum for the
// algorithm" and "same as -f": typing them must change nothing, so a
// swept n still derives both per cell rather than from the base -n.
func TestCampaignCLISentinelsDerivePerCell(t *testing.T) {
	args := []string{"campaign", "-axis", "n=5,9", "-horizon", "3", "-cells", "-json"}
	typed, err := capture(t, func() error { return run(append(args, "-f", "-1", "-faulty", "-1")) })
	if err != nil {
		t.Fatal(err)
	}
	plain, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	if typed != plain {
		t.Fatalf("typed sentinels changed the cells:\n%s\nvs\n%s", typed, plain)
	}
	var rec struct {
		N      int `json:"n"`
		F      int `json:"f"`
		Faulty int `json:"faulty"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(typed, "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.N != 5 || rec.F != 2 || rec.Faulty != 2 {
		t.Fatalf("first cell = %+v, want n=5 f=2 faulty=2", rec)
	}
}

func TestCampaignCLISearch(t *testing.T) {
	out, err := capture(t, func() error {
		return run(campaignArgs("", "-search", "faulty"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "threshold search on faulty") ||
		!strings.Contains(out, "last_pass") {
		t.Fatalf("search output unexpected:\n%s", out)
	}
}

func TestCampaignCLIErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no axis":          {"campaign", "-n", "5"},
		"malformed axis":   {"campaign", "-axis", "faulty"},
		"unknown field":    {"campaign", "-axis", "warp=1,2"},
		"csv+json":         campaignArgs("", "-csv", "-json"),
		"cells in search":  campaignArgs("", "-search", "faulty", "-cells"),
		"search off-axis":  campaignArgs("", "-search", "dmax"),
		"bad axis value":   {"campaign", "-axis", "faulty=x,y"},
		"invalid topology": campaignArgs("", "-topology", "wan:"),
	} {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}
