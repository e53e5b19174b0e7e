package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"shotgun/internal/sim"
)

// gate is the correctness gate of one benchmark run: every checked
// operation counts as attempted, every violation as failed. A run with
// any failure prints correct=false and exits non-zero.
type gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string // the first few violations, for the report
}

func (g *gate) check(ok bool, format string, args ...any) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !ok {
		g.failed++
		if len(g.first) < 10 {
			g.first = append(g.first, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// goldens holds testdata/golden/<id>.txt, read once per run.
type goldens map[string]string

func loadGoldens(ids []string) (goldens, error) {
	g := make(goldens, len(ids))
	for _, id := range ids {
		raw, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", id, err)
		}
		g[id] = string(raw)
	}
	return g, nil
}

// compare checks one rendered table byte for byte against its golden.
func (g goldens) compare(gt *gate, id, got string) {
	want := g[id]
	gt.check(got == want, "table %s differs from testdata/golden/%s.txt at %s", id, id, firstDiff(want, got))
}

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "end of text"
}

// checkInvariants asserts, from outside the model, the bounds every
// Result must satisfy whatever its configuration.
func checkInvariants(gt *gate, sc sim.Scenario, res sim.ScenarioResult) {
	if !gt.check(len(res.Cores) == len(sc.Cores), "scenario with %d cores returned %d results", len(sc.Cores), len(res.Cores)) {
		return
	}
	for i, r := range res.Cores {
		cfg := sc.Cores[i].Normalized()
		c, h := r.Core, r.Hier
		where := fmt.Sprintf("%s/%s core %d of %d", cfg.Workload, cfg.Mechanism, i, len(sc.Cores))
		gt.check(c.FrontEndStallCycles+c.BackEndStallCycles <= c.Cycles,
			"%s: front-end %d + back-end %d stall cycles exceed %d cycles", where, c.FrontEndStallCycles, c.BackEndStallCycles, c.Cycles)
		gt.check(c.FetchStallCycles <= c.Cycles,
			"%s: fetch stall %d exceeds %d cycles", where, c.FetchStallCycles, c.Cycles)
		gt.check(h.DemandL1IHits+h.DemandPrefBufHits <= h.DemandFetches && h.DemandLLCHits <= h.DemandFetches,
			"%s: L1-I/buffer hits %d+%d or LLC hits %d exceed %d demand fetches", where, h.DemandL1IHits, h.DemandPrefBufHits, h.DemandLLCHits, h.DemandFetches)
		gt.check(h.DataL1DHits+h.DataLLCHits+h.DataMemFills <= h.DataAccesses,
			"%s: L1-D hits %d + LLC hits %d + fills %d exceed %d data accesses", where, h.DataL1DHits, h.DataLLCHits, h.DataMemFills, h.DataAccesses)
		gt.check(h.PrefetchLLCHits+h.PrefetchMemFills <= h.PrefetchesIssued,
			"%s: prefetch LLC hits %d + fills %d exceed %d issued", where, h.PrefetchLLCHits, h.PrefetchMemFills, h.PrefetchesIssued)
		gt.check(r.PrefetchAccuracy >= 0 && r.PrefetchAccuracy <= 1,
			"%s: prefetch accuracy %v outside [0,1]", where, r.PrefetchAccuracy)
		if s := r.Sampled; cfg.Sampling != nil {
			gt.check(s != nil && s.Units >= cfg.Sampling.Units && c.Instructions == s.MeasuredInstr &&
				s.MeasuredInstr >= uint64(s.Units)*cfg.Sampling.UnitBlocks,
				"%s: sampled run measured %d instructions over %+v, want at least %d units of %d blocks",
				where, c.Instructions, s, cfg.Sampling.Units, cfg.Sampling.UnitBlocks)
		} else {
			want := cfg.MeasureInstr / uint64(cfg.Samples) * uint64(cfg.Samples)
			gt.check(c.Instructions >= want, "%s: retired %d instructions, requested %d", where, c.Instructions, want)
		}
	}
}

// instrOf is the number of instructions a scenario traverses, summed
// over its cores: warm-up, the gaps between measurement windows and the
// windows themselves for an exact run, the whole traversed span for a
// sampled one.
func instrOf(sc sim.Scenario, res sim.ScenarioResult) uint64 {
	var n uint64
	for i, cfg := range sc.Cores {
		cfg = cfg.Normalized()
		if cfg.Sampling != nil {
			n += res.Cores[i].Sampled.TotalInstr()
			continue
		}
		n += cfg.WarmupInstr + cfg.MeasureInstr + uint64(cfg.Samples-1)*cfg.SkipInstr
	}
	return n
}

// simPath names the simulation path a scenario takes, for per-layer
// attribution: the sampled RunStream path, the multi-context core, the
// exact single-core path, or the multi-core event kernel.
func simPath(sc sim.Scenario) string {
	if len(sc.Cores) > 1 {
		return "scenario"
	}
	cfg := sc.Cores[0].Normalized()
	switch {
	case cfg.Sampling != nil:
		return "sampled"
	case cfg.Contexts > 1:
		return "smt"
	}
	return "exact"
}

// measuredCoreCycles sums the measured cycles of every core.
func measuredCoreCycles(res sim.ScenarioResult) uint64 {
	var n uint64
	for _, r := range res.Cores {
		n += r.Core.Cycles
	}
	return n
}

// simCounts are the exact simulated statistics of one workload, summed
// over every core of every scenario it ran. They are not host time: a
// change that only makes the simulator faster must leave them
// identical.
type simCounts struct {
	cycles, instr, feStall               uint64
	demandFetches, demandHits, btbMisses uint64
	pfIssued, pfUseful                   uint64
	fillCycles, fillSamples              uint64
}

func (s *simCounts) add(res sim.ScenarioResult) {
	for _, r := range res.Cores {
		s.cycles += r.Core.Cycles
		s.instr += r.Core.Instructions
		s.feStall += r.Core.FrontEndStallCycles
		s.demandFetches += r.Hier.DemandFetches
		s.demandHits += r.Hier.DemandL1IHits + r.Hier.DemandPrefBufHits
		s.btbMisses += r.BTBMisses
		s.pfIssued += r.Hier.PrefetchesIssued
		s.pfUseful += r.Hier.DemandPrefBufHits + r.Hier.PrefetchUsefulInflight
		s.fillCycles += r.Hier.DataFillCycles
		s.fillSamples += r.Hier.DataFillSamples
	}
}

// firstCounts holds the first pass's counts; every later pass of the
// run must reproduce them exactly.
type firstCounts struct {
	first simCounts
	set   bool
}

func (f *firstCounts) check(g *gate, c simCounts) {
	if !f.set {
		f.first, f.set = c, true
		return
	}
	g.check(c == f.first, "simulated counts changed between passes: %+v then %+v", f.first, c)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (s simCounts) metrics(m metrics) {
	m.set("core.sim_cycles", float64(s.cycles), "count")
	m.set("core.cpi", ratio(float64(s.cycles), float64(s.instr)), "cycles/instr")
	m.set("core.fe_stall_frac", ratio(float64(s.feStall), float64(s.cycles)), "ratio")
	m.set("uncore.l1i_mpki", 1000*ratio(float64(s.demandFetches-s.demandHits), float64(s.instr)), "1/kinstr")
	m.set("uncore.pf_accuracy", ratio(float64(s.pfUseful), float64(s.pfIssued)), "ratio")
	m.set("uncore.dfill_cycles", ratio(float64(s.fillCycles), float64(s.fillSamples)), "cycles")
	m.set("btb.mpki", 1000*ratio(float64(s.btbMisses), float64(s.instr)), "1/kinstr")
}
