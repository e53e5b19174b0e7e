// Metamorphic properties of the simulation engine: relations that must
// hold between *pairs* of runs, independent of any golden value. They
// pin the scenario layer's algebra — permutation equivariance and bit-
// exact determinism — so a change that keeps every golden table intact
// but breaks the layer's contracts still fails loudly.
package sim

import (
	"testing"

	"shotgun/internal/footprint"
	"shotgun/internal/prefetch"
)

// metaScale keeps the metamorphic suite fast; the properties are
// scale-independent.
func metaCfg(wl string, m Mechanism) Config {
	return Config{
		Workload: wl, Mechanism: m,
		WarmupInstr: 50_000, MeasureInstr: 60_000, Samples: 1,
	}
}

// permutations of 0..n-1 used by the equivariance tests: enough shapes
// to cover "reverse", "rotate" and "swap a middle pair" without paying
// for all n! runs.
func testPermutations(n int) [][]int {
	reverse := make([]int, n)
	rotate := make([]int, n)
	for i := 0; i < n; i++ {
		reverse[i] = n - 1 - i
		rotate[i] = (i + 1) % n
	}
	perms := [][]int{reverse, rotate}
	if n >= 3 {
		swap := make([]int, n)
		for i := range swap {
			swap[i] = i
		}
		swap[1], swap[2] = swap[2], swap[1]
		perms = append(perms, swap)
	}
	return perms
}

// engines pins the metamorphic properties to each scenario engine by
// name: RunScenario runs every exact scenario on the event kernel, but
// the properties must hold for the retained lockstep reference too — a
// contract break in either engine fails here even if the other masks it.
var engines = []struct {
	name string
	run  func(Scenario) (ScenarioResult, error)
}{
	{"lockstep", runLockstep},
	{"event", eventEngine},
}

// runWith executes a scenario through the full RunScenario pipeline —
// normalization, canonical-order execution, reorder — pinned to one
// engine, and holds every result to the shared invariants.
func runWith(t *testing.T, run func(Scenario) (ScenarioResult, error), sc Scenario) ScenarioResult {
	t.Helper()
	norm, perm := sc.NormalizedPerm()
	canon, err := run(norm)
	if err != nil {
		t.Fatal(err)
	}
	res := canon.Reorder(perm)
	checkScenarioInvariants(t, sc, res)
	return res
}

// TestPermutationEquivariance: permuting a scenario's per-core configs
// permutes the per-core results identically — bit for bit, not just
// statistically. result.Cores[i] must always describe the caller's
// Cores[i], however the caller ordered them. The property must hold on
// both engines.
func TestPermutationEquivariance(t *testing.T) {
	smt := metaCfg("Zeus", Delta)
	smt.Contexts = 2
	base := []Config{
		metaCfg("Oracle", Shotgun),
		metaCfg("DB2", Boomerang),
		metaCfg("Nutch", None),
		smt,
	}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			t.Parallel()
			ref := runWith(t, eng.run, Scenario{Cores: base})

			for pi, p := range testPermutations(len(base)) {
				cores := make([]Config, len(base))
				for i := range p {
					cores[i] = base[p[i]]
				}
				got := runWith(t, eng.run, Scenario{Cores: cores})
				for i := range p {
					if got.Cores[i] != ref.Cores[p[i]] {
						t.Fatalf("perm %d: core %d (orig %d) drifted under permutation:\n%+v\n%+v",
							pi, i, p[i], got.Cores[i], ref.Cores[p[i]])
					}
				}
			}
		})
	}
}

// TestPermutationEquivarianceWithDuplicates: duplicate configs are
// interchangeable by rank — the k-th copy in the caller's order always
// maps to the k-th copy in canonical order, so permuting a multiset
// with repeats still permutes results exactly.
func TestPermutationEquivarianceWithDuplicates(t *testing.T) {
	a := metaCfg("Nutch", Shotgun)
	b := metaCfg("Nutch", FDIP)
	refSc := Scenario{Cores: []Config{a, a, b}}
	gotSc := Scenario{Cores: []Config{a, b, a}}
	ref, got := MustRunScenario(refSc), MustRunScenario(gotSc)
	checkScenarioInvariants(t, refSc, ref)
	checkScenarioInvariants(t, gotSc, got)
	// Caller order [a,b,a]: first a ↔ ref core 0, b ↔ ref core 2,
	// second a ↔ ref core 1.
	for i, want := range []Result{ref.Cores[0], ref.Cores[2], ref.Cores[1]} {
		if got.Cores[i] != want {
			t.Fatalf("duplicate-rank mapping broken at core %d:\n%+v\n%+v", i, got.Cores[i], want)
		}
	}
}

// TestPermutedScenariosShareIdentity: the content identity is
// permutation-invariant, so a cluster serving by ScenarioKey simulates
// each multiset of cores exactly once.
func TestPermutedScenariosShareIdentity(t *testing.T) {
	base := []Config{metaCfg("Oracle", Shotgun), metaCfg("DB2", None)}
	sc := Scenario{Cores: base}
	swapped := Scenario{Cores: []Config{base[1], base[0]}}
	if string(sc.CanonicalBytes()) != string(swapped.CanonicalBytes()) {
		t.Fatal("permuted scenarios have different canonical identities")
	}
}

// goldenShapes reconstructs one representative scenario per golden
// experiment family — every mechanism, every footprint region mode, the
// C-BTB override, and the multi-core interference shape — at
// metamorphic scale.
func goldenShapes() []Scenario {
	var scs []Scenario
	for _, m := range Mechanisms() {
		scs = append(scs, SingleCore(metaCfg("Oracle", m)))
	}
	for _, mode := range []prefetch.RegionMode{
		prefetch.RegionNone, prefetch.RegionVector, prefetch.RegionEntire, prefetch.RegionFiveBlocks,
	} {
		cfg := metaCfg("DB2", Shotgun)
		cfg.RegionMode = mode
		if mode == prefetch.RegionEntire {
			cfg.Layout = footprint.Layout32
		}
		scs = append(scs, SingleCore(cfg))
	}
	// The interference experiment's shape: a shotgun primary plus
	// over-prefetching co-runners on one shared uncore.
	co := metaCfg("Oracle", Shotgun)
	co.RegionMode = prefetch.RegionEntire
	co.Layout = footprint.Layout32
	scs = append(scs, Scenario{Cores: []Config{metaCfg("Oracle", Shotgun), co, co}})
	// The mechanism-diversity axes (the delta engine already rides in via
	// Mechanisms above): the CLZ-TAGE predictor variant and the
	// multi-context front-end, alone and sharing an uncore.
	clz := metaCfg("Oracle", Shotgun)
	clz.BPU = BPUCLZ
	scs = append(scs, SingleCore(clz))
	smt := metaCfg("DB2", Boomerang)
	smt.Contexts = 4
	scs = append(scs, SingleCore(smt))
	scs = append(scs, Scenario{Cores: []Config{smt, clz, metaCfg("Nutch", Delta)}})
	return scs
}

// TestRerunBitIdentical: re-running any golden-family scenario in a
// fresh engine instance is bit-identical — the whole golden gate rests
// on this (PR 1 removed the last source of run-to-run nondeterminism).
// Both engines carry the gate (the event kernel runs the corpus, the
// lockstep engine is its reference), so both are held to it.
func TestRerunBitIdentical(t *testing.T) {
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			t.Parallel()
			for _, sc := range goldenShapes() {
				a := runWith(t, eng.run, sc)
				b := runWith(t, eng.run, sc)
				for i := range a.Cores {
					if a.Cores[i] != b.Cores[i] {
						t.Fatalf("scenario %s core %d differs between identical runs:\n%+v\n%+v",
							sc.CanonicalBytes(), i, a.Cores[i], b.Cores[i])
					}
				}
			}
		})
	}
}
