package core

import (
	"fmt"
	"sync"
	"testing"

	"shotgun/internal/isa"
	"shotgun/internal/uncore"
	"shotgun/internal/workload"
)

// testTapes records the streams testSetup's contexts walk, with the
// predictor lane for a one-context core.
func testTapes(contexts int) ([]*Tape, *DirTape) {
	tapes := make([]*Tape, contexts)
	for k := range tapes {
		tapes[k] = NewTape(testCfg, k, workload.NewWalker(testProg(), 3+uint64(k)), workload.NewRefCoder(testProg()), uncore.DefaultConfig().NewL1D())
	}
	var dir *DirTape
	if contexts == 1 {
		dir = NewDirTape(tapes[0], testCfg.CLZTage)
	}
	return tapes, dir
}

// tapedSetup builds testSetup's core fed from the given tapes.
func tapedSetup(t testing.TB, mech string, tapes []*Tape, dir *DirTape) (*Core, *uncore.Hierarchy) {
	t.Helper()
	c, hier := testCore(t, mech, make([]workload.Stream, len(tapes)))
	for k, tp := range tapes {
		c.Replay(k, tp, dir)
	}
	return c, hier
}

// TestReplayMatchesLive holds a tape-fed core to its live twin, at every
// context count: two replaying cores share one set of tapes, run
// concurrently, and must both land on the live core's stats across a
// stats reset, with the same hierarchy stats.
func TestReplayMatchesLive(t *testing.T) {
	for _, n := range contextCounts {
		for _, mech := range []string{"none", "boomerang"} {
			t.Run(fmt.Sprintf("ctx%d/%s", n, mech), func(t *testing.T) {
				run := func(c *Core) {
					c.Run(30_000)
					c.ResetStats()
					c.Run(50_000)
				}
				live, liveHier := testSetup(t, mech, n)
				run(live)

				tapes, dir := testTapes(n)
				cores := make([]*Core, 2)
				var wg sync.WaitGroup
				for i := range cores {
					cores[i], _ = tapedSetup(t, mech, tapes, dir)
					wg.Add(1)
					go func() {
						defer wg.Done()
						run(cores[i])
					}()
				}
				wg.Wait()
				for i, c := range cores {
					if c.Stats() != live.Stats() {
						t.Errorf("replay %d drifted from live:\nlive:   %+v\nreplay: %+v", i, live.Stats(), c.Stats())
					}
					if c.Hierarchy().Stats() != liveHier.Stats() {
						t.Errorf("replay %d hierarchy drifted from live", i)
					}
				}
			})
		}
	}
}

// TestPredictorLaneHandsOver runs a one-context core past the lookup
// where the direction predictor first ages its useful counters. The lane
// ends there, and the replaying core must carry on with a live predictor
// in the lane's state: its stats stay equal to the live core's, whose
// stats reset moved that decay point.
func TestPredictorLaneHandsOver(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3M instructions twice")
	}
	run := func(c *Core) {
		c.Run(100_000)
		c.ResetStats()
		c.Run(2_900_000)
	}
	live, _ := testSetup(t, "none", 1)
	run(live)
	tapes, dir := testTapes(1)
	c, _ := tapedSetup(t, "none", tapes, dir)
	run(c)
	if c.ctxs[0].tape.dir != nil {
		t.Fatal("the predictor lane never ended; the hand-over went unexercised")
	}
	if c.Stats() != live.Stats() {
		t.Fatalf("replay drifted from live after the hand-over:\nlive:   %+v\nreplay: %+v", live.Stats(), c.Stats())
	}
	if c.tage.Lookups != live.tage.Lookups || c.tage.Mispredicts != live.tage.Mispredicts {
		t.Fatalf("predictor stats drifted: replay %d/%d, live %d/%d",
			c.tage.Lookups, c.tage.Mispredicts, live.tage.Lookups, live.tage.Mispredicts)
	}
}

// TestTapeFootprint records 200K blocks of every workload profile's
// stream and holds the lanes to their memory budget: at most 12 bytes
// per block for the walk and data lanes together, and at most one bit
// per block for the predictor lane.
func TestTapeFootprint(t *testing.T) {
	const blocks = 200_000
	for _, p := range workload.Profiles() {
		cfg := Config{LoadFrac: p.LoadFrac, DataBlocks: p.DataBlocks, DataZipfS: p.DataZipfS, DataSeed: p.WalkSeed}
		tape := NewTape(cfg, 0, p.NewWalker(), workload.NewRefCoder(p.Program()), uncore.DefaultConfig().NewL1D())
		dir := NewDirTape(tape, false)
		dir.ensure(blocks)
		n, bytes := tape.Footprint()
		dn, dbytes := dir.Footprint()
		if n < blocks || dn < blocks {
			t.Fatalf("%s: recorded %d walk and %d predictor blocks, want %d", p.Name, n, dn, blocks)
		}
		perBlock := float64(bytes) / float64(n)
		dirBits := 8 * float64(dbytes) / float64(dn)
		t.Logf("%-9s walk+data %.2f B/block, predictor %.3f bit/block", p.Name, perBlock, dirBits)
		if perBlock > 12 {
			t.Errorf("%s: walk and data lanes take %.2f bytes per block, budget 12", p.Name, perBlock)
		}
		if dirBits > 1.001 {
			t.Errorf("%s: predictor lane takes %.3f bits per block, budget 1", p.Name, dirBits)
		}
	}
}

// sliceStream replays pre-walked blocks, so a live-fed core can be
// measured without the walker's own allocations.
type sliceStream struct {
	blocks []isa.BasicBlock
	i      int
}

func (s *sliceStream) Next() isa.BasicBlock {
	bb := s.blocks[s.i]
	s.i++
	return bb
}

// TestSteadyStateAllocFree extends the engines' zero-allocation check to
// the core: once warm, 10k cycles of Tick/NextEvent/AdvanceIdle allocate
// nothing, at one and four contexts, live-fed (pre-walked blocks, live
// data draws and predictor) and tape-fed (recorded ahead, so replay
// never records).
func TestSteadyStateAllocFree(t *testing.T) {
	const (
		warm   = 200_000 // instructions before measuring
		cycles = 10_000
		ahead  = 200_000 // blocks walked or recorded up front
	)
	for _, n := range []int{1, 4} {
		for _, taped := range []bool{false, true} {
			feed := "live"
			if taped {
				feed = "tape"
			}
			t.Run(fmt.Sprintf("ctx%d/%s", n, feed), func(t *testing.T) {
				var c *Core
				if taped {
					tapes, dir := testTapes(n)
					for _, tp := range tapes {
						tp.ensure(ahead)
					}
					if dir != nil {
						dir.ensure(ahead)
					}
					c, _ = tapedSetup(t, "boomerang", tapes, dir)
				} else {
					streams := make([]workload.Stream, n)
					for k := range streams {
						w := workload.NewWalker(testProg(), 3+uint64(k))
						s := &sliceStream{blocks: make([]isa.BasicBlock, ahead)}
						for i := range s.blocks {
							s.blocks[i] = w.Next()
						}
						streams[k] = s
					}
					c, _ = testCore(t, "boomerang", streams)
				}
				c.Run(warm)
				drive := func() {
					for end := c.Now() + cycles; c.Now() < end; {
						c.Tick()
						if next := min(c.NextEvent(), end); next > c.Now() {
							c.AdvanceIdle(next - c.Now())
						}
					}
				}
				if allocs := testing.AllocsPerRun(1, drive); allocs != 0 {
					t.Fatalf("%v allocations in %d steady-state cycles", allocs, cycles)
				}
			})
		}
	}
}
