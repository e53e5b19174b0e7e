package sim

import "testing"

// checkInvariants asserts what every result must satisfy, whatever the
// engine, mechanism or shape that produced it:
//
//   - stall cycles are classified cycles: front-end plus back-end stalls,
//     and fetch stalls alone, never exceed Cycles;
//   - the hierarchy's demand-fetch and data-access outcomes partition
//     their totals, so hits never exceed accesses;
//   - prefetch accuracy is a fraction;
//   - an exact run retires at least its measured schedule: Samples
//     windows of MeasureInstr/Samples instructions each, which is
//     MeasureInstr whenever Samples divides it.
func checkInvariants(t testing.TB, cfg Config, r Result) {
	t.Helper()
	c, h := r.Core, r.Hier
	if c.FrontEndStallCycles+c.BackEndStallCycles > c.Cycles {
		t.Errorf("%s/%s: front-end %d + back-end %d stall cycles exceed %d cycles",
			r.Workload, r.Mechanism, c.FrontEndStallCycles, c.BackEndStallCycles, c.Cycles)
	}
	if c.FetchStallCycles > c.Cycles {
		t.Errorf("%s/%s: %d fetch stall cycles exceed %d cycles",
			r.Workload, r.Mechanism, c.FetchStallCycles, c.Cycles)
	}
	if sum := h.DemandL1IHits + h.DemandPrefBufHits + h.DemandInflight + h.DemandLLCHits + h.DemandMemFills; sum != h.DemandFetches {
		t.Errorf("%s/%s: demand-fetch outcomes sum to %d, not the %d demand fetches: %+v",
			r.Workload, r.Mechanism, sum, h.DemandFetches, h)
	}
	if sum := h.DataL1DHits + h.DataLLCHits + h.DataMemFills; sum != h.DataAccesses {
		t.Errorf("%s/%s: data-access outcomes sum to %d, not the %d data accesses: %+v",
			r.Workload, r.Mechanism, sum, h.DataAccesses, h)
	}
	if r.PrefetchAccuracy < 0 || r.PrefetchAccuracy > 1 {
		t.Errorf("%s/%s: prefetch accuracy %v outside [0,1]", r.Workload, r.Mechanism, r.PrefetchAccuracy)
	}
	cfg = cfg.Normalized()
	if cfg.Sampling == nil {
		if measured := uint64(cfg.Samples) * (cfg.MeasureInstr / uint64(cfg.Samples)); c.Instructions < measured {
			t.Errorf("%s/%s: retired %d instructions, fewer than the %d measured",
				r.Workload, r.Mechanism, c.Instructions, measured)
		}
	}
}

// checkScenarioInvariants applies checkInvariants to every core of a
// result, pairing each with its config in the scenario's order.
func checkScenarioInvariants(t testing.TB, sc Scenario, res ScenarioResult) {
	t.Helper()
	if len(res.Cores) != len(sc.Cores) {
		t.Fatalf("%d core results for %d cores", len(res.Cores), len(sc.Cores))
	}
	for i, r := range res.Cores {
		checkInvariants(t, sc.Cores[i], r)
	}
}
