package sim

import (
	"sync"

	"shotgun/internal/core"
	"shotgun/internal/uncore"
	"shotgun/internal/workload"
)

// TapeSet shares functional tapes (core.Tape, core.DirTape) among the
// scenarios of one batch. A context's walk and data draws depend only on
// (workload, core index, context index), and a one-context core's
// direction predictions only on that stream and the BPU variant, so
// every scenario of the batch that walks the same stream can replay one
// recording instead of re-deriving it.
//
// NewTapeSet counts, per stream, the batch's scenarios that walk it, and
// only streams with two or more get a tape. The tape is created by its
// first user, recorded lazily by whichever simulation reaches a position
// first, and dropped when its last user releases it, so a set holds no
// more than the batch needs, and nothing outlives the set. Sampled runs
// stay live: skimming consumes blocks without data draws. Results are
// bit-identical to live runs.
//
// A nil *TapeSet is valid and runs everything live.
type TapeSet struct {
	mu     sync.Mutex
	walks  map[streamKey]*walkEntry
	dirs   map[dirKey]*dirEntry
	coders map[string]*coderEntry // per workload, while it has tapes
	stats  TapeStats
}

// streamKey names one context's stream.
type streamKey struct {
	workload  string
	core, ctx int
}

// dirKey names a one-context core's predictor lane.
type dirKey struct {
	streamKey
	bpu string
}

type walkEntry struct {
	users int
	tape  *core.Tape
}

type dirEntry struct {
	users int
	tape  *core.DirTape
}

// coderEntry is a workload's RefCoder, shared by its live tapes and
// dropped with the last of them.
type coderEntry struct {
	tapes int
	coder *workload.RefCoder
}

// TapeStats counts a tape set's recording and replay. Tapes are created
// once per shared stream; every context that runs on one counts as a
// replay, its recorder included. Block and byte counts cover tapes
// already released by their last user.
type TapeStats struct {
	Tapes, Replays       int
	DirLanes, DirReplays int

	Blocks, Bytes       uint64
	DirBlocks, DirBytes uint64
}

// Add accumulates another set's counters.
func (s *TapeStats) Add(o TapeStats) {
	s.Tapes += o.Tapes
	s.Replays += o.Replays
	s.DirLanes += o.DirLanes
	s.DirReplays += o.DirReplays
	s.Blocks += o.Blocks
	s.Bytes += o.Bytes
	s.DirBlocks += o.DirBlocks
	s.DirBytes += o.DirBytes
}

// NewTapeSet prepares tapes for the streams that two or more of batch's
// scenarios walk. Every scenario of the batch must later be run through
// the set's RunScenario or given back with Release.
func NewTapeSet(batch []Scenario) *TapeSet {
	walks := make(map[streamKey]int)
	dirs := make(map[dirKey]int)
	for _, sc := range batch {
		forStreams(sc, func(k streamKey) { walks[k]++ }, func(k dirKey) { dirs[k]++ })
	}
	ts := &TapeSet{
		walks:  make(map[streamKey]*walkEntry),
		dirs:   make(map[dirKey]*dirEntry),
		coders: make(map[string]*coderEntry),
	}
	for k, n := range walks {
		if n >= 2 {
			ts.walks[k] = &walkEntry{users: n}
		}
	}
	for k, n := range dirs {
		if n >= 2 {
			ts.dirs[k] = &dirEntry{users: n}
		}
	}
	return ts
}

// forStreams calls walk for every taped stream of sc's exact cores, in
// canonical core order, and dir for every one-context core's lane.
func forStreams(sc Scenario, walk func(streamKey), dir func(dirKey)) {
	for i, cfg := range sc.Normalized().Cores {
		if cfg.Sampling != nil {
			continue
		}
		nctx := contextsOf(cfg)
		for k := 0; k < nctx; k++ {
			walk(streamKey{cfg.Workload, i, k})
		}
		if nctx == 1 {
			dir(dirKey{streamKey{cfg.Workload, i, 0}, cfg.BPU})
		}
	}
}

// RunScenario runs sc like the package-level RunScenario, replaying the
// set's shared streams, and then releases sc's claim on them.
func (ts *TapeSet) RunScenario(sc Scenario) (ScenarioResult, error) {
	if ts == nil {
		return RunScenario(sc)
	}
	defer ts.Release(sc)
	return runScenario(sc, nil, ts)
}

// Release gives back sc's claim on the set's tapes without running it
// (its result came from a memo or a store). A tape whose last user
// releases it is dropped.
func (ts *TapeSet) Release(sc Scenario) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	forStreams(sc, func(k streamKey) {
		e, ok := ts.walks[k]
		if !ok {
			return
		}
		if e.users--; e.users == 0 {
			delete(ts.walks, k)
			if e.tape != nil {
				b, n := e.tape.Footprint()
				ts.stats.Blocks += b
				ts.stats.Bytes += n
				c := ts.coders[k.workload]
				if c.tapes--; c.tapes == 0 {
					delete(ts.coders, k.workload)
				}
			}
		}
	}, func(k dirKey) {
		e, ok := ts.dirs[k]
		if !ok {
			return
		}
		if e.users--; e.users == 0 {
			delete(ts.dirs, k)
			if e.tape != nil {
				b, n := e.tape.Footprint()
				ts.stats.DirBlocks += b
				ts.stats.DirBytes += n
			}
		}
	})
}

// Stats returns the set's counters so far.
func (ts *TapeSet) Stats() TapeStats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.stats
}

// walk returns the shared tape of core i's context k, creating it on
// first use, or nil when the stream is not shared. Every scenario gets
// the default L1-D geometry of ucfg, so the stream key also fixes the
// L1-D outcomes the tape records.
func (ts *TapeSet) walk(prof workload.Profile, cfg Config, ucfg uncore.Config, i, k int) *core.Tape {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.walks[streamKey{cfg.Workload, i, k}]
	if !ok {
		return nil
	}
	if e.tape == nil {
		c := ts.coders[cfg.Workload]
		if c == nil {
			c = &coderEntry{coder: workload.NewRefCoder(prof.Program())}
			ts.coders[cfg.Workload] = c
		}
		c.tapes++
		e.tape = core.NewTape(coreConfig(prof, cfg, i), k, walkerFor(prof, i, k), c.coder, ucfg.NewL1D())
		ts.stats.Tapes++
	}
	ts.stats.Replays++
	return e.tape
}

// dir returns the shared predictor lane of one-context core i over its
// walk tape, creating it on first use, or nil when it is not shared.
func (ts *TapeSet) dir(prof workload.Profile, cfg Config, i int, walk *core.Tape) *core.DirTape {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.dirs[dirKey{streamKey{cfg.Workload, i, 0}, cfg.BPU}]
	if !ok {
		return nil
	}
	if e.tape == nil {
		e.tape = core.NewDirTape(walk, cfg.BPU == BPUCLZ)
		ts.stats.DirLanes++
	}
	ts.stats.DirReplays++
	return e.tape
}
