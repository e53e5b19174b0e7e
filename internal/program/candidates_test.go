package program

import (
	"slices"
	"sort"
	"testing"

	"shotgun/internal/xrand"
)

// buildForTest runs Generate's construction on params and seed and
// returns the builder, whose candidate lists Generate does not expose.
func buildForTest(t testing.TB, params GenParams, seed uint64) *builder {
	t.Helper()
	params.setDefaults()
	b := &builder{p: params, rng: xrand.New(seed), prog: &Program{}}
	b.build()
	if err := b.prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

// rankGroups lists each role group's functions (trap entries excluded)
// hottest first.
func rankGroups(b *builder) (ranked [2][]FuncID) {
	for _, g := range b.prog.Funcs {
		if g.Role != RoleTrapEntry {
			ranked[roleGroup(g.Role)] = append(ranked[roleGroup(g.Role)], g.ID)
		}
	}
	for _, ids := range ranked {
		sort.Slice(ids, func(i, j int) bool { return b.popRank[ids[i]] < b.popRank[ids[j]] })
	}
	return ranked
}

// scanCalleeCandidates is the reference for the candidate lists: a scan of
// f's whole ranked role group for f alone. It keeps the functions in the
// window of layers directly below f and, if that window is empty, any
// lower layer, and reports whether it fell back.
func scanCalleeCandidates(b *builder, ranked []FuncID, f *Function) (out []FuncID, fellBack bool) {
	pick := func(minLayer int) []FuncID {
		var out []FuncID
		for _, id := range ranked {
			g := b.prog.Funcs[id]
			if id == f.ID {
				continue
			}
			if g.Layer < f.Layer && g.Layer >= minLayer {
				out = append(out, id)
			}
		}
		return out
	}
	out = pick(f.Layer - calleeLayerWindow)
	if len(out) == 0 {
		out = pick(0)
		fellBack = len(out) > 0
	}
	return out, fellBack
}

// checkCalleeCandidates requires every function of the program generated
// from params and seed to get exactly the reference scan's candidate
// list, and returns how many functions needed the fallback.
func checkCalleeCandidates(t testing.TB, params GenParams, seed uint64) (fallbacks int) {
	t.Helper()
	b := buildForTest(t, params, seed)
	ranked := rankGroups(b)
	for _, f := range b.prog.Funcs {
		want, fellBack := scanCalleeCandidates(b, ranked[roleGroup(f.Role)], f)
		if got := b.candidates[roleGroup(f.Role)][f.Layer]; !slices.Equal(got, want) {
			t.Fatalf("%+v seed %d: function %d (%v, layer %d) candidates %v, reference scan %v",
				params, seed, f.ID, f.Role, f.Layer, got, want)
		}
		if fellBack {
			fallbacks++
		}
	}
	return fallbacks
}

func TestCalleeCandidatesMatchScan(t *testing.T) {
	if n := checkCalleeCandidates(t, smallParams(), 1); n != 0 {
		t.Fatalf("default layering fell back %d times; every layer is populated", n)
	}
	// Three kernel internals fill layers 0-2 of six, so the trap
	// entries at layer 6 see an empty window (layers 3-5) and fall back.
	fallbackParams := GenParams{NumAppFuncs: 30, NumKernelFuncs: 8, TrapEntryFrac: 0.6, KernelLayers: 6}
	if n := checkCalleeCandidates(t, fallbackParams, 1); n == 0 {
		t.Fatal("no function took the fallback; the test no longer covers it")
	}

	rng := xrand.New(2024)
	fallbacks := 0
	for i := 0; i < 200; i++ {
		appLayers := 1 + rng.Intn(8)
		params := GenParams{
			NumAppFuncs:    appLayers + rng.Intn(150),
			NumKernelFuncs: 1 + rng.Intn(40),
			TrapEntryFrac:  0.05 + 0.9*rng.Float64(),
			AppLayers:      appLayers,
			KernelLayers:   1 + rng.Intn(8),
			LayerDecay:     0.4 + 0.55*rng.Float64(),
		}
		fallbacks += checkCalleeCandidates(t, params, rng.Uint64())
	}
	if fallbacks == 0 {
		t.Fatal("no random program took the fallback")
	}
}
