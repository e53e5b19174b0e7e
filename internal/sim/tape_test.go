package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// tapeCfg runs long enough for every core's stream to cross a walk-lane
// chunk. Like evtCfg it measures one window: with two windows this
// matrix trips the open prefetch-accuracy defect (ROADMAP item 4) on
// live and taped runs alike, which FuzzScenarioKernels already reports.
func tapeCfg(wl string, m Mechanism, bpu string, contexts int) Config {
	return Config{
		Workload: wl, Mechanism: m, BPU: bpu, Contexts: contexts,
		WarmupInstr: 12_000, MeasureInstr: 20_000, Samples: 1,
	}
}

// tapeMatrix is the differential matrix: every mechanism × {tage, clz} ×
// {1, 2, 4} contexts × {1, 2, 8} cores. Core 0 runs the case's mechanism
// on Oracle; co-runners rotate workload and mechanism with the same
// predictor and context count, so every core index has streams that
// several scenarios share.
func tapeMatrix() ([]string, []Scenario) {
	mechs := Mechanisms()
	wls := []string{"Oracle", "Nutch", "DB2", "Zeus", "Apache", "Streaming"}
	var names []string
	var scs []Scenario
	for mi, m := range mechs {
		for _, bpu := range []string{"", BPUCLZ} {
			for _, ctx := range []int{1, 2, 4} {
				for _, n := range []int{1, 2, 8} {
					cores := []Config{tapeCfg("Oracle", m, bpu, ctx)}
					for j := 1; j < n; j++ {
						cores = append(cores, tapeCfg(wls[j%len(wls)], mechs[(mi+j)%len(mechs)], bpu, ctx))
					}
					names = append(names, fmt.Sprintf("%s/bpu=%s/ctx%d/n%d", m, bpu, ctx, n))
					scs = append(scs, Scenario{Cores: cores})
				}
			}
		}
	}
	return names, scs
}

// TestTapesMatchLive is the tape keystone: every scenario of the matrix
// run inside one shared tape set must be bit-equal to its live run and
// hold the result invariants. The set is run forward, then (in a fresh
// set) in reverse, so replays extend tapes that other runs recorded
// shorter from both ends; then on two workers, whose simulations record
// and replay the same tapes concurrently (run it under -race). Every
// tape must be released by the end of each batch.
func TestTapesMatchLive(t *testing.T) {
	names, scs := tapeMatrix()
	want := make([]ScenarioResult, len(scs))
	for i, sc := range scs {
		res, err := RunScenario(sc)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		checkScenarioInvariants(t, sc, res)
		want[i] = res
	}
	forward := make([]int, len(scs))
	for i := range forward {
		forward[i] = i
	}
	reverse := make([]int, len(scs))
	for i := range reverse {
		reverse[i] = len(scs) - 1 - i
	}
	for _, pass := range []struct {
		name    string
		order   []int
		workers int
	}{
		{"forward", forward, 1},
		{"reverse", reverse, 1},
		{"workers2", forward, 2},
	} {
		t.Run(pass.name, func(t *testing.T) {
			if raceEnabled && pass.workers == 1 {
				t.Skip("serial passes skipped under -race")
			}
			ts := NewTapeSet(scs)
			got := make([]ScenarioResult, len(scs))
			errs := make([]error, len(scs))
			jobs := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < pass.workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range jobs {
						got[i], errs[i] = ts.RunScenario(scs[i])
					}
				}()
			}
			for _, i := range pass.order {
				jobs <- i
			}
			close(jobs)
			wg.Wait()
			for i := range scs {
				if errs[i] != nil {
					t.Fatalf("%s: %v", names[i], errs[i])
				}
				checkScenarioInvariants(t, scs[i], got[i])
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: taped run drifted from live:\ntaped: %+v\nlive:  %+v", names[i], got[i], want[i])
				}
			}
			st := ts.Stats()
			if st.Tapes == 0 || st.DirLanes == 0 || st.Replays <= st.Tapes || st.DirReplays <= st.DirLanes {
				t.Fatalf("the matrix shared nothing: %+v", st)
			}
			if len(ts.walks) != 0 || len(ts.dirs) != 0 || len(ts.coders) != 0 {
				t.Fatalf("%d tapes, %d predictor lanes and %d block tables outlived the batch",
					len(ts.walks), len(ts.dirs), len(ts.coders))
			}
		})
	}
}

// TestTapeSetReleaseWithoutRun covers the claims a batch gives back
// unrun (memoized or stored results): a stream's tape is dropped with
// its last claim whether that claim ran or not, and a nil set runs live.
func TestTapeSetReleaseWithoutRun(t *testing.T) {
	a := Scenario{Cores: []Config{tapeCfg("Nutch", Shotgun, "", 1)}}
	b := Scenario{Cores: []Config{tapeCfg("Nutch", None, "", 1)}}
	ts := NewTapeSet([]Scenario{a, b, a})
	ts.Release(a)
	got, err := ts.RunScenario(b)
	if err != nil {
		t.Fatal(err)
	}
	if st := ts.Stats(); st.Tapes != 1 || st.Replays != 1 {
		t.Fatalf("stats %+v, want one tape replayed once", st)
	}
	ts.Release(a)
	if len(ts.walks) != 0 || len(ts.dirs) != 0 || len(ts.coders) != 0 {
		t.Fatalf("%d tapes, %d predictor lanes and %d block tables outlived their claims",
			len(ts.walks), len(ts.dirs), len(ts.coders))
	}
	var none *TapeSet
	live, err := none.RunScenario(b)
	if err != nil {
		t.Fatal(err)
	}
	none.Release(b)
	if !reflect.DeepEqual(got, live) {
		t.Fatalf("taped run drifted from live:\ntaped: %+v\nlive:  %+v", got, live)
	}
}
