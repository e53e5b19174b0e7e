package harness

import (
	"testing"

	"shotgun/internal/sim"
)

// evalCore is the single-core experiment set perfbench's eval-core
// workload sweeps: every exact, multi-context and sampled path.
var evalCore = []string{"table1", "fig7", "delta", "clztage", "smt", "sampled"}

// TestBatchRecordsEachStreamOnce holds PrefetchScenarios to its tape
// contract on the eval-core batch. Counted independently of sim: every
// stream (workload, core, context) that two or more exact scenarios walk
// is recorded exactly once and replayed by every one of them, and every
// one-context core's predictor lane likewise per BPU. A simulation that
// silently fell back to its live walker would come up short here, and
// a tape released early and recorded again would count twice.
func TestBatchRecordsEachStreamOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the eval-core batch")
	}
	var exps []Experiment
	for _, id := range evalCore {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		exps = append(exps, e)
	}
	r := NewRunnerWorkers(tinyScale(), 1)

	type stream struct {
		wl        string
		core, ctx int
		bpu       string // predictor lanes only
	}
	walks, dirs := map[stream]int{}, map[stream]int{}
	seen := map[string]bool{}
	for _, sc := range AllScenarios(exps) {
		n := r.NormalizeScenario(sc)
		if k := string(n.CanonicalBytes()); seen[k] {
			continue
		} else {
			seen[k] = true
		}
		for i, cfg := range n.Cores {
			if cfg.Sampling != nil {
				continue
			}
			for k := 0; k < max(cfg.Contexts, 1); k++ {
				walks[stream{cfg.Workload, i, k, ""}]++
			}
			if cfg.Contexts <= 1 {
				dirs[stream{cfg.Workload, i, 0, cfg.BPU}]++
			}
		}
	}
	var want sim.TapeStats
	for _, n := range walks {
		if n >= 2 {
			want.Tapes++
			want.Replays += n
		}
	}
	for _, n := range dirs {
		if n >= 2 {
			want.DirLanes++
			want.DirReplays += n
		}
	}
	if want.Tapes == 0 || want.DirLanes == 0 {
		t.Fatalf("the eval-core batch shares no stream: %+v", want)
	}

	r.PrefetchScenarios(AllScenarios(exps))
	got := r.TapeStats()
	t.Logf("%d tapes replayed %d times, %d predictor lanes replayed %d times; %.2f B/block over %d blocks, %.3f bit/block",
		got.Tapes, got.Replays, got.DirLanes, got.DirReplays,
		float64(got.Bytes)/float64(got.Blocks), got.Blocks, 8*float64(got.DirBytes)/float64(got.DirBlocks))
	if got.Tapes != want.Tapes || got.Replays != want.Replays ||
		got.DirLanes != want.DirLanes || got.DirReplays != want.DirReplays {
		t.Fatalf("tape counts drifted:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Blocks == 0 || got.DirBlocks == 0 {
		t.Fatalf("tapes were created but never recorded: %+v", got)
	}

	// A second batch over memoized results touches no stream.
	r.PrefetchScenarios(AllScenarios(exps))
	if again := r.TapeStats(); again != got {
		t.Fatalf("a fully memoized batch recorded tapes:\nbefore %+v\nafter  %+v", got, again)
	}
}
