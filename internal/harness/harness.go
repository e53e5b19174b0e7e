// Package harness regenerates every table and figure of the paper's
// evaluation (Section 6). Each ExperimentN function runs the simulations
// it needs (sharing results through a memoizing Runner), returns the
// structured series, and renders a text table with the same rows the
// paper reports.
package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"shotgun/internal/btb"
	"shotgun/internal/footprint"
	"shotgun/internal/prefetch"
	"shotgun/internal/sim"
	"shotgun/internal/stats"
	"shotgun/internal/workload"
)

// scenariosOf wraps a config list as N=1 scenarios — the bridge between
// the single-core experiment declarations and the scenario-keyed runner.
func scenariosOf(cfgs []sim.Config) []sim.Scenario {
	out := make([]sim.Scenario, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = sim.SingleCore(cfg)
	}
	return out
}

// Scale sets simulation length. Quick is for tests; Full for the
// reported experiments.
type Scale struct {
	WarmupInstr  uint64
	MeasureInstr uint64
	Samples      int
}

// QuickScale runs short simulations for smoke tests.
func QuickScale() Scale {
	return Scale{WarmupInstr: 300_000, MeasureInstr: 400_000, Samples: 1}
}

// FullScale is the reported-experiment configuration.
func FullScale() Scale {
	return Scale{WarmupInstr: 2_000_000, MeasureInstr: 3_000_000, Samples: 3}
}

// cacheKey is the identity of one simulation: the canonical encoding of
// the *normalized* scenario (every default made explicit, per-core
// specs in order), so two scenarios that would run the same simulation
// always collide on purpose, and two that would not never do. This is
// the same byte string internal/store hashes for content addressing —
// one identity from the in-memory memo to the on-disk cache.
type cacheKey string

// keyOf builds the cache key for a normalized scenario.
func keyOf(sc sim.Scenario) cacheKey {
	return cacheKey(sc.CanonicalBytes())
}

// flight is one memoized simulation. The sync.Once gives per-key
// single-flight semantics: concurrent callers of the same scenario block
// on the one in-progress computation instead of duplicating it.
type flight struct {
	once sync.Once
	res  sim.ScenarioResult
	done atomic.Bool // res is set
}

// do computes the flight's result once, reporting whether this call
// was the one that ran compute.
func (f *flight) do(compute func() sim.ScenarioResult) bool {
	ran := false
	f.once.Do(func() {
		f.res = compute()
		f.done.Store(true)
		ran = true
	})
	return ran
}

// ResultStore is the persistence hook a Runner consults before
// simulating (implemented by internal/store). GetScenario returns a
// previously persisted result for a normalized scenario; PutScenario
// records a freshly computed one. Implementations must be safe for
// concurrent use by the worker pool.
type ResultStore interface {
	GetScenario(sc sim.Scenario) (sim.ScenarioResult, bool)
	PutScenario(sc sim.Scenario, res sim.ScenarioResult) error
}

// Runner memoizes simulation results so experiments sharing
// configurations (e.g. the no-prefetch baseline) run once, and executes
// independent simulations on a bounded worker pool. Results are
// deterministic and independent of worker count or completion order: each
// simulation is self-contained, so a table assembled from memoized
// results is byte-identical whether it ran on one worker or many.
//
// With a ResultStore attached, the runner checks the store before
// simulating and persists every fresh result, so a warm restart serves
// previously computed configurations without re-simulating.
type Runner struct {
	scale   Scale
	workers int
	store   ResultStore

	mu    sync.Mutex
	cache map[cacheKey]*flight
	tapes sim.TapeStats // summed over every PrefetchScenarios batch
}

// NewRunner builds a runner at the given scale with one worker per
// available CPU.
func NewRunner(scale Scale) *Runner {
	return NewRunnerWorkers(scale, runtime.GOMAXPROCS(0))
}

// NewRunnerWorkers builds a runner with an explicit worker-pool size
// (values below 1 mean 1). One worker reproduces the serial seed
// behaviour exactly.
func NewRunnerWorkers(scale Scale, workers int) *Runner {
	if workers < 1 {
		workers = 1
	}
	return &Runner{
		scale:   scale,
		workers: workers,
		cache:   make(map[cacheKey]*flight),
	}
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return r.workers }

// SetStore attaches a persistent result store. Attach before the first
// Run/Prefetch: the field is read by worker goroutines without locking,
// so it must not change once simulations are in flight.
func (r *Runner) SetStore(s ResultStore) { r.store = s }

// compute executes one scenario, consulting the persistent store (when
// attached) on both sides: a stored result short-circuits the
// simulation, and a fresh one is persisted for later processes.
// Persistence is best-effort — a failed Put loses the cache entry for
// the next restart, never the current batch (the store tracks its own
// error counts).
//
// tapes, when non-nil, is the batch's shared tape set: the simulation
// replays its streams and gives back its claim on them either way.
func (r *Runner) compute(sc sim.Scenario, tapes *sim.TapeSet) sim.ScenarioResult {
	if r.store != nil {
		if res, ok := r.store.GetScenario(sc); ok {
			tapes.Release(sc)
			return res
		}
	}
	res, err := tapes.RunScenario(sc)
	if err != nil {
		panic(err)
	}
	if r.store != nil {
		_ = r.store.PutScenario(sc, res)
	}
	return res
}

// pinScale stamps the runner's scale onto a config — the one place
// scale fields are pinned, so single-config and scenario normalization
// cannot diverge as Scale grows fields.
func (r *Runner) pinScale(cfg sim.Config) sim.Config {
	cfg.WarmupInstr = r.scale.WarmupInstr
	cfg.MeasureInstr = r.scale.MeasureInstr
	cfg.Samples = r.scale.Samples
	return cfg
}

// Normalize pins the runner's scale onto cfg and makes every simulation
// default explicit, so keying and execution agree. External keyers
// normalize through the runner so their identity matches the memo's.
func (r *Runner) Normalize(cfg sim.Config) sim.Config {
	return r.pinScale(cfg).Normalized()
}

// pinScenario stamps the runner's scale onto every core of a scenario,
// preserving the caller's core order.
func (r *Runner) pinScenario(sc sim.Scenario) sim.Scenario {
	cores := make([]sim.Config, len(sc.Cores))
	for i, cfg := range sc.Cores {
		cores[i] = r.pinScale(cfg)
	}
	sc.Cores = cores
	return sc
}

// NormalizeScenario pins the runner's scale onto every core of the
// scenario and normalizes the result (canonical core order included) —
// the scenario-level identity the memo, the store and the HTTP job
// table all share.
func (r *Runner) NormalizeScenario(sc sim.Scenario) sim.Scenario {
	return r.pinScenario(sc).Normalized()
}

// flightFor returns the (created-once) flight for a normalized scenario.
func (r *Runner) flightFor(sc sim.Scenario) *flight {
	key := keyOf(sc)
	r.mu.Lock()
	f, ok := r.cache[key]
	if !ok {
		f = &flight{}
		r.cache[key] = f
	}
	r.mu.Unlock()
	return f
}

// Seed primes the memo with an externally computed result for a
// normalized scenario — the bridge that lets results computed OUTSIDE
// this runner (a dispatch cluster's workers, whose records live only
// in a job table) serve later renders instead of re-simulating. The
// scenario must be normalized and res in its core order; if the key is
// already memoized or in flight, the existing result wins (it is the
// same simulation by identity).
func (r *Runner) Seed(sc sim.Scenario, res sim.ScenarioResult) {
	r.flightFor(sc).do(func() sim.ScenarioResult { return res })
}

// RunScenario executes (or recalls) one scenario at the runner's scale.
// Concurrent callers of the same scenario — including callers holding
// per-core permutations of it — share a single execution; results come
// back in the caller's core order.
func (r *Runner) RunScenario(sc sim.Scenario) sim.ScenarioResult {
	return r.RunScenarioExact(r.pinScenario(sc))
}

// RunScenarioExact executes (or recalls) one scenario exactly as given,
// without pinning the runner's scale onto it. Dispatch workers run
// coordinator-leased scenarios through this path: the coordinator
// already pinned its scale, and re-pinning with the worker's would
// silently record results under the wrong identity if the two processes
// were started at different scales.
func (r *Runner) RunScenarioExact(sc sim.Scenario) sim.ScenarioResult {
	norm, perm := sc.NormalizedPerm()
	f := r.flightFor(norm)
	f.do(func() sim.ScenarioResult { return r.compute(norm, nil) })
	return f.res.Reorder(perm)
}

// Run executes (or recalls) one single-core simulation: the N=1
// scenario's core-0 result.
func (r *Runner) Run(cfg sim.Config) sim.Result {
	return r.RunScenario(sim.SingleCore(cfg)).Cores[0]
}

// Prefetch runs every given single-core config on the worker pool; see
// PrefetchScenarios.
func (r *Runner) Prefetch(cfgs []sim.Config) {
	r.PrefetchScenarios(scenariosOf(cfgs))
}

// PrefetchScenarios runs every given scenario on the worker pool and
// returns when all results are memoized. Duplicate scenarios (and
// scenarios already cached or in flight) cost nothing extra. Each
// ExperimentN declares its full scenario set through Prefetch before
// assembling its table, so the pool saturates every core while assembly
// stays simple and serial.
//
// The batch's simulations share one sim.TapeSet, owned by this call:
// each stream two or more of them walk is recorded once and replayed by
// the rest, and every tape is gone when the call returns.
func (r *Runner) PrefetchScenarios(scs []sim.Scenario) {
	type job struct {
		sc sim.Scenario
		f  *flight
	}
	// Deduplicate up front so the pool only sees distinct simulations.
	seen := make(map[cacheKey]bool, len(scs))
	var jobs []job
	for _, sc := range scs {
		sc = r.NormalizeScenario(sc)
		key := keyOf(sc)
		if seen[key] {
			continue
		}
		seen[key] = true
		if f := r.flightFor(sc); !f.done.Load() {
			jobs = append(jobs, job{sc: sc, f: f})
		}
	}
	if len(jobs) == 0 {
		return
	}
	// Results do not depend on execution order, so jobs run grouped by
	// their first core's workload: a stream's users then run close
	// together, and its tape is released long before the batch ends.
	sort.SliceStable(jobs, func(a, b int) bool {
		return jobs[a].sc.Cores[0].Workload < jobs[b].sc.Cores[0].Workload
	})
	batch := make([]sim.Scenario, len(jobs))
	for i, j := range jobs {
		batch[i] = j.sc
	}
	tapes := sim.NewTapeSet(batch)
	defer r.addTapeStats(tapes)
	run := func(j job) {
		// A flight another caller computed meanwhile never walks its
		// streams; give its claim back.
		if !j.f.do(func() sim.ScenarioResult { return r.compute(j.sc, tapes) }) {
			tapes.Release(j.sc)
		}
	}
	workers := r.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers == 1 {
		for _, j := range jobs {
			run(j)
		}
		return
	}
	ch := make(chan job)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range ch {
				run(j)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// addTapeStats adds a finished batch's tape counters to the runner's.
func (r *Runner) addTapeStats(ts *sim.TapeSet) {
	s := ts.Stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tapes.Add(s)
}

// TapeStats returns the tape counters summed over every batch this
// runner has prefetched: how many streams were recorded and how often
// they were replayed.
func (r *Runner) TapeStats() sim.TapeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tapes
}

// baselineConfig is the no-prefetch 2K-BTB configuration for a workload.
func baselineConfig(wl string) sim.Config {
	return sim.Config{Workload: wl, Mechanism: sim.None}
}

// baseline returns the no-prefetch 2K-BTB result for a workload.
func (r *Runner) baseline(wl string) sim.Result {
	return r.Run(baselineConfig(wl))
}

// Workloads lists the evaluation suite in presentation order.
func Workloads() []string { return workload.Names() }

// ---------------------------------------------------------------------
// Table 1: BTB MPKI of a 2K-entry BTB without prefetching.
// ---------------------------------------------------------------------

// Table1Row is one workload's miss rate.
type Table1Row struct {
	Workload string
	BTBMPKI  float64
}

// Table1Configs declares every simulation Table 1 needs.
func Table1Configs() []sim.Config {
	var cfgs []sim.Config
	for _, wl := range Workloads() {
		cfgs = append(cfgs, baselineConfig(wl))
	}
	return cfgs
}

// Table1 regenerates Table 1.
func Table1(r *Runner) ([]Table1Row, *stats.Table) {
	r.Prefetch(Table1Configs())
	var rows []Table1Row
	t := stats.NewTable("Table 1: BTB MPKI (2K-entry BTB, no prefetching)", "Workload", "MPKI")
	for _, wl := range Workloads() {
		res := r.baseline(wl)
		rows = append(rows, Table1Row{Workload: wl, BTBMPKI: res.BTBMPKI()})
		t.AddF(wl, "%.1f", res.BTBMPKI())
	}
	return rows, t
}

// ---------------------------------------------------------------------
// Figure 1: Confluence / Boomerang / Ideal speedups over no-prefetch.
// ---------------------------------------------------------------------

// SpeedupRow is one workload's speedups across mechanisms.
type SpeedupRow struct {
	Workload string
	Speedup  map[string]float64
}

// Figure1 regenerates Figure 1.
func Figure1(r *Runner) ([]SpeedupRow, *stats.Table) {
	return speedupFigure(r, "Figure 1: state-of-the-art vs ideal front-end (speedup over no-prefetch)", Figure1Mechs())
}

// Figure1Mechs lists Figure 1's mechanisms.
func Figure1Mechs() []sim.Mechanism {
	return []sim.Mechanism{sim.Confluence, sim.Boomerang, sim.Ideal}
}

// mechConfigs declares the baseline plus per-mechanism simulations every
// speedup/coverage figure needs.
func mechConfigs(mechs []sim.Mechanism) []sim.Config {
	var cfgs []sim.Config
	for _, wl := range Workloads() {
		cfgs = append(cfgs, baselineConfig(wl))
		for _, m := range mechs {
			cfgs = append(cfgs, sim.Config{Workload: wl, Mechanism: m})
		}
	}
	return cfgs
}

func speedupFigure(r *Runner, title string, mechs []sim.Mechanism) ([]SpeedupRow, *stats.Table) {
	r.Prefetch(mechConfigs(mechs))
	headers := []string{"Workload"}
	for _, m := range mechs {
		headers = append(headers, string(m))
	}
	t := stats.NewTable(title, headers...)
	var rows []SpeedupRow
	gmeans := make(map[string][]float64)
	for _, wl := range Workloads() {
		base := r.baseline(wl)
		row := SpeedupRow{Workload: wl, Speedup: map[string]float64{}}
		var cells []float64
		for _, m := range mechs {
			res := r.Run(sim.Config{Workload: wl, Mechanism: m})
			s := res.Speedup(base)
			row.Speedup[string(m)] = s
			gmeans[string(m)] = append(gmeans[string(m)], s)
			cells = append(cells, s)
		}
		rows = append(rows, row)
		t.AddF(wl, "%.3f", cells...)
	}
	var gm []float64
	grow := SpeedupRow{Workload: "Gmean", Speedup: map[string]float64{}}
	for _, m := range mechs {
		g := stats.GeoMean(gmeans[string(m)])
		grow.Speedup[string(m)] = g
		gm = append(gm, g)
	}
	rows = append(rows, grow)
	t.AddF("Gmean", "%.3f", gm...)
	return rows, t
}

// ---------------------------------------------------------------------
// Figure 3: instruction-cache block access distance inside code regions.
// ---------------------------------------------------------------------

// Figure3Row is one workload's cumulative access-probability curve.
type Figure3Row struct {
	Workload string
	CDF      [workload.RegionDistBuckets]float64
}

// Figure3AnalysisBlocks is the trace length for the Figure 3/4 analyses.
const Figure3AnalysisBlocks = 400_000

// Figure3 regenerates Figure 3 (a pure trace analysis; no timing).
func Figure3(*Runner) ([]Figure3Row, *stats.Table) {
	t := stats.NewTable("Figure 3: cumulative access probability vs distance from region entry",
		"Workload", "d=0", "d=1", "d=2", "d=4", "d=6", "d=8", "d=10", "d=16", ">16")
	var rows []Figure3Row
	for _, wl := range Workloads() {
		prof := workload.MustGet(wl)
		a := workload.Analyze(prof.NewWalker(), Figure3AnalysisBlocks)
		cdf := a.RegionCDF()
		rows = append(rows, Figure3Row{Workload: wl, CDF: cdf})
		t.AddF(wl, "%.2f", cdf[0], cdf[1], cdf[2], cdf[4], cdf[6], cdf[8], cdf[10], cdf[16], cdf[17])
	}
	return rows, t
}

// ---------------------------------------------------------------------
// Figure 4: dynamic-branch coverage vs hottest static branches.
// ---------------------------------------------------------------------

// Figure4Row is one coverage curve sample.
type Figure4Row struct {
	Workload string
	K        int
	All      float64
	Uncond   float64
}

// Figure4Points are the static-branch counts sampled (the paper's x-axis
// runs 1K..8K).
var Figure4Points = []int{1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192}

// Figure4 regenerates Figure 4 for Oracle and DB2.
func Figure4(*Runner) ([]Figure4Row, *stats.Table) {
	t := stats.NewTable("Figure 4: dynamic branch coverage of K hottest static branches",
		"Workload", "K", "all", "unconditional")
	var rows []Figure4Row
	for _, wl := range []string{"Oracle", "DB2"} {
		prof := workload.MustGet(wl)
		a := workload.Analyze(prof.NewWalker(), Figure3AnalysisBlocks)
		for _, k := range Figure4Points {
			all := a.CoverageAt(k, nil)
			unc := a.CoverageAt(k, workload.UncondFilter)
			rows = append(rows, Figure4Row{Workload: wl, K: k, All: all, Uncond: unc})
			t.AddRow(wl, fmt.Sprintf("%d", k), fmt.Sprintf("%.3f", all), fmt.Sprintf("%.3f", unc))
		}
	}
	return rows, t
}

// ---------------------------------------------------------------------
// Figure 6: front-end stall-cycle coverage.
// ---------------------------------------------------------------------

// CoverageRow is one workload's stall coverage across mechanisms.
type CoverageRow struct {
	Workload string
	Coverage map[string]float64
}

// Figure6Mechs lists Figure 6's mechanisms.
func Figure6Mechs() []sim.Mechanism {
	return []sim.Mechanism{sim.Confluence, sim.Boomerang, sim.Shotgun}
}

// Figure6 regenerates Figure 6.
func Figure6(r *Runner) ([]CoverageRow, *stats.Table) {
	mechs := Figure6Mechs()
	r.Prefetch(mechConfigs(mechs))
	headers := []string{"Workload"}
	for _, m := range mechs {
		headers = append(headers, string(m))
	}
	t := stats.NewTable("Figure 6: front-end stall cycles covered (vs no-prefetch baseline)", headers...)
	var rows []CoverageRow
	avgs := map[string][]float64{}
	for _, wl := range Workloads() {
		base := r.baseline(wl)
		row := CoverageRow{Workload: wl, Coverage: map[string]float64{}}
		var cells []float64
		for _, m := range mechs {
			res := r.Run(sim.Config{Workload: wl, Mechanism: m})
			c := res.StallCoverage(base)
			row.Coverage[string(m)] = c
			avgs[string(m)] = append(avgs[string(m)], c)
			cells = append(cells, c)
		}
		rows = append(rows, row)
		t.AddF(wl, "%.3f", cells...)
	}
	var av []float64
	arow := CoverageRow{Workload: "Avg", Coverage: map[string]float64{}}
	for _, m := range mechs {
		a := stats.Mean(avgs[string(m)])
		arow.Coverage[string(m)] = a
		av = append(av, a)
	}
	rows = append(rows, arow)
	t.AddF("Avg", "%.3f", av...)
	return rows, t
}

// ---------------------------------------------------------------------
// Figure 7: speedups of the three mechanisms.
// ---------------------------------------------------------------------

// Figure7Mechs lists Figure 7's mechanisms.
func Figure7Mechs() []sim.Mechanism {
	return []sim.Mechanism{sim.Confluence, sim.Boomerang, sim.Shotgun}
}

// Figure7 regenerates Figure 7.
func Figure7(r *Runner) ([]SpeedupRow, *stats.Table) {
	return speedupFigure(r, "Figure 7: speedup over no-prefetch baseline", Figure7Mechs())
}

// ---------------------------------------------------------------------
// Figures 8-11: spatial-footprint variants.
// ---------------------------------------------------------------------

// Variant names one spatial-region prefetching mechanism of Section 6.3.
type Variant struct {
	Name   string
	Mode   prefetch.RegionMode
	Layout footprint.Layout
}

// Variants lists the Figure 8/9 ablation points in presentation order.
func Variants() []Variant {
	return []Variant{
		{Name: "no-bit-vector", Mode: prefetch.RegionNone, Layout: footprint.Layout8},
		{Name: "8-bit-vector", Mode: prefetch.RegionVector, Layout: footprint.Layout8},
		{Name: "32-bit-vector", Mode: prefetch.RegionVector, Layout: footprint.Layout32},
		{Name: "entire-region", Mode: prefetch.RegionEntire, Layout: footprint.Layout32},
		{Name: "5-blocks", Mode: prefetch.RegionFiveBlocks, Layout: footprint.Layout8},
	}
}

// AccuracyVariants lists the Figure 10/11 subset.
func AccuracyVariants() []Variant {
	all := Variants()
	return []Variant{all[1], all[3], all[4]}
}

// variantConfig is the Shotgun simulation for one footprint variant.
func variantConfig(wl string, v Variant) sim.Config {
	return sim.Config{
		Workload:   wl,
		Mechanism:  sim.Shotgun,
		RegionMode: v.Mode,
		Layout:     v.Layout,
	}
}

// variantConfigs declares the baseline plus per-variant simulations the
// Figure 8-11 ablations need.
func variantConfigs(variants []Variant) []sim.Config {
	var cfgs []sim.Config
	for _, wl := range Workloads() {
		cfgs = append(cfgs, baselineConfig(wl))
		for _, v := range variants {
			cfgs = append(cfgs, variantConfig(wl, v))
		}
	}
	return cfgs
}

func (r *Runner) runVariant(wl string, v Variant) sim.Result {
	return r.Run(variantConfig(wl, v))
}

// VariantRow is one workload's metric across footprint variants.
type VariantRow struct {
	Workload string
	Values   map[string]float64
}

func variantFigure(r *Runner, title string, variants []Variant,
	metric func(res, base sim.Result) float64, avgGeo bool, format string) ([]VariantRow, *stats.Table) {
	r.Prefetch(variantConfigs(variants))
	headers := []string{"Workload"}
	for _, v := range variants {
		headers = append(headers, v.Name)
	}
	t := stats.NewTable(title, headers...)
	var rows []VariantRow
	agg := map[string][]float64{}
	for _, wl := range Workloads() {
		base := r.baseline(wl)
		row := VariantRow{Workload: wl, Values: map[string]float64{}}
		var cells []float64
		for _, v := range variants {
			res := r.runVariant(wl, v)
			m := metric(res, base)
			row.Values[v.Name] = m
			agg[v.Name] = append(agg[v.Name], m)
			cells = append(cells, m)
		}
		rows = append(rows, row)
		t.AddF(wl, format, cells...)
	}
	label := "Avg"
	if avgGeo {
		label = "Gmean"
	}
	arow := VariantRow{Workload: label, Values: map[string]float64{}}
	var cells []float64
	for _, v := range variants {
		var a float64
		if avgGeo {
			a = stats.GeoMean(agg[v.Name])
		} else {
			a = stats.Mean(agg[v.Name])
		}
		arow.Values[v.Name] = a
		cells = append(cells, a)
	}
	rows = append(rows, arow)
	t.AddF(label, format, cells...)
	return rows, t
}

// Figure8 regenerates Figure 8: stall coverage across footprint variants.
func Figure8(r *Runner) ([]VariantRow, *stats.Table) {
	return variantFigure(r, "Figure 8: Shotgun stall-cycle coverage by spatial-region mechanism",
		Variants(), func(res, base sim.Result) float64 { return res.StallCoverage(base) }, false, "%.3f")
}

// Figure9 regenerates Figure 9: speedup across footprint variants.
func Figure9(r *Runner) ([]VariantRow, *stats.Table) {
	return variantFigure(r, "Figure 9: Shotgun speedup by spatial-region mechanism",
		Variants(), func(res, base sim.Result) float64 { return res.Speedup(base) }, true, "%.3f")
}

// Figure10 regenerates Figure 10: prefetch accuracy.
func Figure10(r *Runner) ([]VariantRow, *stats.Table) {
	return variantFigure(r, "Figure 10: Shotgun prefetch accuracy by spatial-region mechanism",
		AccuracyVariants(), func(res, _ sim.Result) float64 { return res.PrefetchAccuracy }, false, "%.3f")
}

// Figure11 regenerates Figure 11: cycles to fill an L1-D miss.
func Figure11(r *Runner) ([]VariantRow, *stats.Table) {
	return variantFigure(r, "Figure 11: cycles to fill an L1-D miss by spatial-region mechanism",
		AccuracyVariants(), func(res, _ sim.Result) float64 { return res.AvgDataFillCycles() }, false, "%.1f")
}

// ---------------------------------------------------------------------
// Figure 12: C-BTB size sensitivity.
// ---------------------------------------------------------------------

// Figure12Sizes are the evaluated C-BTB capacities.
var Figure12Sizes = []int{64, 128, 1024}

// figure12Config is the Shotgun simulation at one C-BTB capacity.
func figure12Config(wl string, cEntries int) sim.Config {
	sizes := btb.MustShotgunSizesForBudget(2048)
	sizes.CEntries = cEntries
	return sim.Config{Workload: wl, Mechanism: sim.Shotgun, ShotgunSizes: &sizes}
}

// Figure12Configs declares every simulation Figure 12 needs.
func Figure12Configs() []sim.Config {
	var cfgs []sim.Config
	for _, wl := range Workloads() {
		cfgs = append(cfgs, baselineConfig(wl))
		for _, n := range Figure12Sizes {
			cfgs = append(cfgs, figure12Config(wl, n))
		}
	}
	return cfgs
}

// Figure12 regenerates Figure 12: Shotgun speedup vs C-BTB entries.
func Figure12(r *Runner) ([]VariantRow, *stats.Table) {
	r.Prefetch(Figure12Configs())
	headers := []string{"Workload"}
	for _, n := range Figure12Sizes {
		headers = append(headers, fmt.Sprintf("%d-entry", n))
	}
	t := stats.NewTable("Figure 12: Shotgun speedup vs C-BTB size", headers...)
	var rows []VariantRow
	agg := map[int][]float64{}
	for _, wl := range Workloads() {
		base := r.baseline(wl)
		row := VariantRow{Workload: wl, Values: map[string]float64{}}
		var cells []float64
		for _, n := range Figure12Sizes {
			res := r.Run(figure12Config(wl, n))
			s := res.Speedup(base)
			row.Values[fmt.Sprintf("%d", n)] = s
			agg[n] = append(agg[n], s)
			cells = append(cells, s)
		}
		rows = append(rows, row)
		t.AddF(wl, "%.3f", cells...)
	}
	arow := VariantRow{Workload: "Gmean", Values: map[string]float64{}}
	var cells []float64
	for _, n := range Figure12Sizes {
		g := stats.GeoMean(agg[n])
		arow.Values[fmt.Sprintf("%d", n)] = g
		cells = append(cells, g)
	}
	rows = append(rows, arow)
	t.AddF("Gmean", "%.3f", cells...)
	return rows, t
}

// ---------------------------------------------------------------------
// Figure 13: BTB storage budget sensitivity (Oracle and DB2).
// ---------------------------------------------------------------------

// Figure13Budgets are the conventional-BTB-equivalent budgets swept.
var Figure13Budgets = []int{512, 1024, 2048, 4096, 8192}

// Figure13Row is one (workload, mechanism, budget) speedup.
type Figure13Row struct {
	Workload  string
	Mechanism string
	Budget    int
	Speedup   float64
}

// Figure13Workloads lists the workloads Figure 13 sweeps.
func Figure13Workloads() []string { return []string{"Oracle", "DB2"} }

// Figure13Configs declares every simulation Figure 13 needs.
func Figure13Configs() []sim.Config {
	var cfgs []sim.Config
	for _, wl := range Figure13Workloads() {
		cfgs = append(cfgs, baselineConfig(wl))
		for _, m := range []sim.Mechanism{sim.Boomerang, sim.Shotgun} {
			for _, budget := range Figure13Budgets {
				cfgs = append(cfgs, sim.Config{Workload: wl, Mechanism: m, BTBEntries: budget})
			}
		}
	}
	return cfgs
}

// Figure13 regenerates Figure 13.
func Figure13(r *Runner) ([]Figure13Row, *stats.Table) {
	r.Prefetch(Figure13Configs())
	t := stats.NewTable("Figure 13: speedup vs BTB storage budget (budget = equivalent conventional entries)",
		"Workload", "Mechanism", "512", "1K", "2K", "4K", "8K")
	var rows []Figure13Row
	for _, wl := range Figure13Workloads() {
		base := r.baseline(wl)
		for _, m := range []sim.Mechanism{sim.Boomerang, sim.Shotgun} {
			var cells []string
			for _, budget := range Figure13Budgets {
				res := r.Run(sim.Config{Workload: wl, Mechanism: m, BTBEntries: budget})
				s := res.Speedup(base)
				rows = append(rows, Figure13Row{Workload: wl, Mechanism: string(m), Budget: budget, Speedup: s})
				cells = append(cells, fmt.Sprintf("%.3f", s))
			}
			t.AddRow(append([]string{wl, string(m)}, cells...)...)
		}
	}
	return rows, t
}

// ---------------------------------------------------------------------
// All experiments.
// ---------------------------------------------------------------------

// Experiment pairs an identifier with its render function and the full
// set of simulations it will request — the planning information Prefetch
// uses to saturate the worker pool before any table is assembled.
type Experiment struct {
	ID   string
	Desc string
	// Table runs the experiment and returns its structured table; text
	// callers use Run, machine-readable callers (internal/report, the
	// HTTP server) serialize the table directly.
	Table func(*Runner) *stats.Table
	// Scenarios declares every simulation Table will need (single-core
	// experiments declare N=1 scenarios); nil for pure trace analyses
	// (Figures 3 and 4) that run no timing simulation.
	Scenarios func() []sim.Scenario
}

// Run renders the experiment as the text table the paper reports.
func (e Experiment) Run(r *Runner) string { return e.Table(r).String() }

// Experiments lists every reproduced table and figure.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "BTB MPKI without prefetching",
			func(r *Runner) *stats.Table { _, t := Table1(r); return t },
			func() []sim.Scenario { return scenariosOf(Table1Configs()) }},
		{"fig1", "State-of-the-art vs ideal speedups",
			func(r *Runner) *stats.Table { _, t := Figure1(r); return t },
			func() []sim.Scenario { return scenariosOf(mechConfigs(Figure1Mechs())) }},
		{"fig3", "Region spatial locality",
			func(r *Runner) *stats.Table { _, t := Figure3(r); return t }, nil},
		{"fig4", "Branch working-set coverage",
			func(r *Runner) *stats.Table { _, t := Figure4(r); return t }, nil},
		{"fig6", "Front-end stall coverage",
			func(r *Runner) *stats.Table { _, t := Figure6(r); return t },
			func() []sim.Scenario { return scenariosOf(mechConfigs(Figure6Mechs())) }},
		{"fig7", "Speedup over baseline",
			func(r *Runner) *stats.Table { _, t := Figure7(r); return t },
			func() []sim.Scenario { return scenariosOf(mechConfigs(Figure7Mechs())) }},
		{"fig8", "Footprint-variant stall coverage",
			func(r *Runner) *stats.Table { _, t := Figure8(r); return t },
			func() []sim.Scenario { return scenariosOf(variantConfigs(Variants())) }},
		{"fig9", "Footprint-variant speedup",
			func(r *Runner) *stats.Table { _, t := Figure9(r); return t },
			func() []sim.Scenario { return scenariosOf(variantConfigs(Variants())) }},
		{"fig10", "Footprint-variant prefetch accuracy",
			func(r *Runner) *stats.Table { _, t := Figure10(r); return t },
			func() []sim.Scenario { return scenariosOf(variantConfigs(AccuracyVariants())) }},
		{"fig11", "Footprint-variant L1-D fill latency",
			func(r *Runner) *stats.Table { _, t := Figure11(r); return t },
			func() []sim.Scenario { return scenariosOf(variantConfigs(AccuracyVariants())) }},
		{"fig12", "C-BTB size sensitivity",
			func(r *Runner) *stats.Table { _, t := Figure12(r); return t },
			func() []sim.Scenario { return scenariosOf(Figure12Configs()) }},
		{"fig13", "BTB budget sensitivity",
			func(r *Runner) *stats.Table { _, t := Figure13(r); return t },
			func() []sim.Scenario { return scenariosOf(Figure13Configs()) }},
		{"interference", "Shared-LLC/NoC interference vs co-runners",
			func(r *Runner) *stats.Table { _, t := Interference(r); return t },
			func() []sim.Scenario {
				return InterferenceScenarios(InterferenceCoRunnerCounts, InterferenceMixes())
			}},
		{"interference64", "Shared-LLC/NoC interference on 16- and 64-core meshes",
			func(r *Runner) *stats.Table { _, t := Interference64(r); return t },
			func() []sim.Scenario {
				return InterferenceScenarios(Interference64CoRunnerCounts, InterferenceMixes())
			}},
		{"sampled", "Sampled vs exact IPC with confidence intervals",
			Sampled,
			func() []sim.Scenario { return scenariosOf(SampledConfigs()) }},
		{"delta", "Delta prefetcher vs the BTB-directed lineage",
			func(r *Runner) *stats.Table { _, t := DeltaGrid(r); return t },
			func() []sim.Scenario { return scenariosOf(mechConfigs(DeltaGridMechs())) }},
		{"clztage", "CLZ-TAGE direction-predictor sweep",
			func(r *Runner) *stats.Table { _, t := CLZTage(r); return t },
			func() []sim.Scenario { return scenariosOf(CLZTageConfigs()) }},
		{"smt", "SMT front-end pressure vs hardware contexts",
			func(r *Runner) *stats.Table { _, t := SMT(r); return t },
			func() []sim.Scenario { return scenariosOf(SMTConfigs()) }},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// AllScenarios returns the union (with duplicates; PrefetchScenarios
// deduplicates) of every experiment's scenario set — the whole
// evaluation's work list, used to saturate the pool across experiment
// boundaries.
func AllScenarios(exps []Experiment) []sim.Scenario {
	var scs []sim.Scenario
	for _, e := range exps {
		if e.Scenarios != nil {
			scs = append(scs, e.Scenarios()...)
		}
	}
	return scs
}
