package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"shotgun/internal/harness"
	"shotgun/internal/predecode"
	"shotgun/internal/program"
	"shotgun/internal/sim"
	"shotgun/internal/workload"
)

// simWorkers is the runner's pool size on eval-core and manycore. One
// worker makes a pass's time independent of the seed-chosen submission
// order: with two, the order in which interference's 8-core scenarios
// reach the pool moves the makespan by up to ~15%.
const simWorkers = 1

// workloadByName maps a workload name to its constructor.
func workloadByName(name string) (func(seed uint64, g *gate) (bench, error), bool) {
	switch name {
	case "eval-core":
		return func(seed uint64, g *gate) (bench, error) {
			return newSimBench([]string{"table1", "fig7", "delta", "clztage", "smt", "sampled"}, seed, g)
		}, true
	case "manycore":
		return func(seed uint64, g *gate) (bench, error) {
			return newSimBench([]string{"interference"}, seed, g)
		}, true
	case "farm":
		return func(seed uint64, g *gate) (bench, error) { return newFarmBench("fig7", seed, g) }, true
	}
	return nil, false
}

func workloadNames() []string { return []string{"eval-core", "manycore", "farm"} }

// simBench runs compiled-in quick-scale experiments through a fresh
// harness.Runner with no store, one pass per runner.
type simBench struct {
	seed  uint64
	g     *gate
	exps  []harness.Experiment
	gold  goldens
	scs   []sim.Scenario // distinct normalized scenarios, declaration order
	profs []workload.Profile

	counts firstCounts
}

func newSimBench(ids []string, seed uint64, g *gate) (*simBench, error) {
	b := &simBench{seed: seed, g: g}
	for _, id := range ids {
		e, ok := harness.Find(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %s", id)
		}
		b.exps = append(b.exps, e)
	}
	var err error
	if b.gold, err = loadGoldens(ids); err != nil {
		return nil, err
	}
	b.scs = distinct(harness.AllScenarios(b.exps))
	b.profs = profilesOf(b.scs)
	return b, nil
}

// distinct normalizes scenarios at quick scale and drops repeats.
func distinct(scs []sim.Scenario) []sim.Scenario {
	r := harness.NewRunnerWorkers(harness.QuickScale(), 1)
	seen := make(map[string]bool)
	var out []sim.Scenario
	for _, sc := range scs {
		n := r.NormalizeScenario(sc)
		if k := string(n.CanonicalBytes()); !seen[k] {
			seen[k] = true
			out = append(out, n)
		}
	}
	return out
}

// profilesOf lists the profiles the scenarios simulate, in suite order.
func profilesOf(scs []sim.Scenario) []workload.Profile {
	used := make(map[string]bool)
	for _, sc := range scs {
		for _, c := range sc.Cores {
			used[c.Workload] = true
		}
	}
	var out []workload.Profile
	for _, p := range workload.Profiles() {
		if used[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// generate is the set-up every workload shares: program and predecode
// generation for its profiles. Rep 0 goes through the process-wide
// cache the simulations read; later reps regenerate from scratch.
func generate(profs []workload.Profile, rep int) {
	for _, p := range profs {
		if rep == 0 {
			p.Program()
			p.Decoder()
			continue
		}
		predecode.NewDecoder(program.MustGenerate(p.Gen, p.Seed))
	}
}

func (b *simBench) setup(rep int) (time.Duration, error) {
	t := time.Now()
	generate(b.profs, rep)
	return time.Since(t), nil
}

func (b *simBench) profiles() []workload.Profile { return b.profs }

func (b *simBench) close() {}

// shuffled returns the scenarios in the pass's seed-derived order.
func shuffled[T any](xs []T, rng *rand.Rand) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (b *simBench) render(r *harness.Runner, tr *tracer, parent *open) {
	o := tr.child(parent, "harness.render")
	tables := make([]string, len(b.exps))
	for i, e := range b.exps {
		tables[i] = e.Run(r)
	}
	tr.finish(o)
	for i, e := range b.exps {
		b.gold.compare(b.g, e.ID, tables[i])
	}
}

func (b *simBench) pass(it int, tr *tracer) (pass, error) {
	rng := rand.New(rand.NewPCG(b.seed, uint64(it)))
	order := shuffled(b.scs, rng)
	r := harness.NewRunnerWorkers(harness.QuickScale(), simWorkers)

	root := tr.root("bench.cold")
	if tr != nil {
		r.SetStore(&simSpans{tr: tr, parent: root, open: make(map[string]*open)})
	}
	runtime.GC()
	t := time.Now()
	r.PrefetchScenarios(order)
	b.render(r, tr, root)
	var p pass
	p.coldS = time.Since(t).Seconds()
	tr.finish(root)

	var counts simCounts
	for _, sc := range b.scs {
		res := r.RunScenario(sc)
		checkInvariants(b.g, sc, res)
		counts.add(res)
		p.instr += instrOf(sc, res)
	}
	b.counts.check(b.g, counts)

	root = tr.root("bench.polls")
	runtime.GC()
	p.polls = lookups(order, lookupsPerPass, rng, func(sc sim.Scenario) {
		r.RunScenario(sc)
	})
	tr.finish(root)

	var err error
	p.warmMs, err = warmSweeps(func() (time.Duration, error) {
		root := tr.root("bench.warm")
		t := time.Now()
		r.PrefetchScenarios(order)
		b.render(r, tr, root)
		d := time.Since(t)
		tr.finish(root)
		return d, nil
	})
	return p, err
}

// warmRepeats is how many warm sweeps a pass times; the pass reports
// their median.
const warmRepeats = 15

// warmSweeps runs sweep warmRepeats times, each from a collected heap,
// and returns the median of the times it reports, in ms.
func warmSweeps(sweep func() (time.Duration, error)) (float64, error) {
	ms := make([]float64, 0, warmRepeats)
	for i := 0; i < warmRepeats; i++ {
		runtime.GC()
		d, err := sweep()
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(d)/1e6)
	}
	return median(ms), nil
}

// lookups runs n closed-loop lookups on two clients over a seed-ordered
// sequence of keys and returns each one's latency in µs.
func lookups[K any](keys []K, n int, rng *rand.Rand, get func(K)) []float64 {
	seq := make([]K, n)
	for i := range seq {
		seq[i] = keys[rng.IntN(len(keys))]
	}
	const clients = 2
	lat := make([]float64, len(seq))
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := c; i < len(seq); i += clients {
				t := time.Now()
				get(seq[i])
				lat[i] = float64(time.Since(t)) / 1e3
			}
		}()
	}
	wg.Wait()
	return lat
}

func (b *simBench) layers(m metrics, spans []span, passes int) {
	simLayers(m, spans)
	serviceLayers(m, spans, passes, nil)
	b.counts.first.metrics(m)
}

// simLayers reports the simulation-path and render metrics from spans.
func simLayers(m metrics, spans []span) {
	type acc struct{ ns, instr, cycles float64 }
	paths := map[string]*acc{}
	cores := map[int]*acc{}
	var renderNs, renders float64
	for _, s := range spans {
		switch s.Name {
		case "sim.exact", "sim.smt", "sim.sampled", "sim.scenario":
			a := paths[s.Name]
			if a == nil {
				a = &acc{}
				paths[s.Name] = a
			}
			a.ns += float64(s.dur())
			a.instr += float64(s.Instr)
			if s.Name == "sim.exact" || s.Name == "sim.scenario" {
				c := cores[s.Cores]
				if c == nil {
					c = &acc{}
					cores[s.Cores] = c
				}
				c.ns += float64(s.dur())
				c.cycles += float64(s.CoreCycles)
			}
		case "harness.render":
			renderNs += float64(s.dur())
			renders++
		}
	}
	for _, p := range []string{"exact", "smt", "sampled"} {
		v := 0.0
		if a := paths["sim."+p]; a != nil {
			v = ratio(a.ns, a.instr)
		}
		m.set("sim."+p+".ns_per_instr", v, "ns")
	}
	for _, n := range []int{1, 2, 4, 8} {
		v := 0.0
		if c := cores[n]; c != nil {
			v = ratio(c.ns, c.cycles)
		}
		m.set(fmt.Sprintf("sim.scenario.ns_per_core_cycle.c%d", n), v, "ns")
	}
	m.set("harness.render_ms", ratio(renderNs, renders)/1e6, "ms")
}

// simSpans is the ResultStore a traced pass attaches to its runner: it
// never holds a result, so the runner asks it before every simulation
// and tells it after, which brackets each simulation with a span.
type simSpans struct {
	tr     *tracer
	parent *open
	mu     sync.Mutex
	open   map[string]*open
}

func (s *simSpans) GetScenario(sc sim.Scenario) (sim.ScenarioResult, bool) {
	key := string(sc.CanonicalBytes())
	o := s.tr.child(s.parent, "sim."+simPath(sc))
	s.mu.Lock()
	s.open[key] = o
	s.mu.Unlock()
	return sim.ScenarioResult{}, false
}

func (s *simSpans) PutScenario(sc sim.Scenario, res sim.ScenarioResult) error {
	key := string(sc.CanonicalBytes())
	s.mu.Lock()
	o := s.open[key]
	delete(s.open, key)
	s.mu.Unlock()
	s.tr.finish(o, span{Instr: instrOf(sc, res), CoreCycles: measuredCoreCycles(res), Cores: len(sc.Cores)})
	return nil
}
