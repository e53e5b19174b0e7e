package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"shotgun/internal/core"
	"shotgun/internal/sim"
)

// TestMain runs from the repository root, where the benchmark reads
// testdata/golden and specs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestWorkloadsShort runs every workload at the shortest length — one
// untraced pass, then one untraced and one traced pass — and requires
// the correctness gate to pass and every declared metric to be
// reported, and nothing else.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, err := run(options{workload: w, seed: 3, seconds: 1e-3, trace: trace}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: gate failed %d of %d checks", w, trace, res.Failed, res.Attempted)
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not reported", w, trace, name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: reported %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			if trace {
				continue
			}
			for _, name := range want {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, res.Metrics[name].Value)
				}
			}
		}
	}
}

// TestGateCatchesViolations feeds the invariant checks a result that
// breaks each bound and a table that differs from its golden.
func TestGateCatchesViolations(t *testing.T) {
	sc := sim.SingleCore(sim.Config{Workload: "Nutch", Mechanism: sim.Shotgun, WarmupInstr: 10, MeasureInstr: 100, Samples: 1})
	good := sim.Result{Core: core.Stats{Cycles: 200, Instructions: 100, FrontEndStallCycles: 50, BackEndStallCycles: 50, FetchStallCycles: 10}}
	g := &gate{}
	checkInvariants(g, sc, sim.ScenarioResult{Cores: []sim.Result{good}})
	if g.failed != 0 {
		t.Fatalf("valid result failed the gate: %v", g.first)
	}
	bad := []func(r *sim.Result){
		func(r *sim.Result) { r.Core.BackEndStallCycles = 151 },
		func(r *sim.Result) { r.Core.FetchStallCycles = 201 },
		func(r *sim.Result) { r.Core.Instructions = 99 },
		func(r *sim.Result) { r.PrefetchAccuracy = 1.5 },
		func(r *sim.Result) { r.Hier.DemandFetches, r.Hier.DemandL1IHits = 1, 2 },
		func(r *sim.Result) { r.Hier.DataAccesses, r.Hier.DataL1DHits = 1, 2 },
		func(r *sim.Result) { r.Hier.PrefetchesIssued, r.Hier.PrefetchMemFills = 1, 2 },
	}
	for i, breakIt := range bad {
		r := good
		breakIt(&r)
		g := &gate{}
		checkInvariants(g, sc, sim.ScenarioResult{Cores: []sim.Result{r}})
		if g.failed != 1 {
			t.Errorf("violation %d: %d checks failed, want 1", i, g.failed)
		}
	}

	gold := goldens{"t": "a\nb\n"}
	g = &gate{}
	gold.compare(g, "t", "a\nc\n")
	if g.failed != 1 {
		t.Fatal("a differing table passed the golden check")
	}
}

// TestSelfTimes checks that self time subtracts the union of
// overlapping children, clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "p", ID: 1, Start: 0, End: 100},
		{Name: "c", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "c", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
	}
	got := selfTimes(spans)
	if got["p"] != 100-50-10 {
		t.Errorf("parent self time %d, want 40", got["p"])
	}
	if got["c"] != 30+30+30 {
		t.Errorf("children self time %d, want 90", got["c"])
	}
}
