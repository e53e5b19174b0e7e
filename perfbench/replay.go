package main

// Layer replays: each simulator layer's public API driven standalone,
// on inputs captured from the workload's own seeded walker, reported as
// ns per operation with the operation count. A replay isolates one
// layer's host cost from everything the full simulation interleaves
// with it, so a change to that layer shows here first.

import (
	"sort"
	"time"

	"shotgun/internal/bpu"
	"shotgun/internal/btb"
	"shotgun/internal/cache"
	"shotgun/internal/core"
	"shotgun/internal/footprint"
	"shotgun/internal/isa"
	"shotgun/internal/noc"
	"shotgun/internal/prefetch"
	"shotgun/internal/sim"
	"shotgun/internal/uncore"
	"shotgun/internal/workload"
	"shotgun/internal/xrand"
)

const (
	// replayBlocks is the walker span captured per profile; at about
	// 5.4 instructions per block it is a little over 200K instructions.
	replayBlocks = 40_000
	// replayCoreInstr is how far each core replay runs per profile.
	replayCoreInstr = 100_000
	// replayReps repeats every replay; the median is reported.
	replayReps = 3
	// dataBase mirrors the core's placement of the synthetic data
	// working set, so replayed data addresses alias the way the model's
	// do.
	dataBase = isa.Addr(0x2000_0000_0000)
)

// capture is one profile's replay input: the walker's blocks, the cache
// blocks they span, and the data addresses their loads draw.
type capture struct {
	prof   workload.Profile
	seed   uint64
	blocks []isa.BasicBlock
	code   []isa.Addr // instruction cache blocks, in fetch order
	data   []isa.Addr // load addresses, in issue order
	mixed  []isa.Addr // code and data interleaved, as the LLC sees them
	stamps []uint64   // a cycle stamp per code block, for the mesh
}

func (c *capture) walker(salt uint64) *workload.Walker {
	return workload.NewWalkerConfig(c.prof.Program(), c.prof.WalkSeed^c.seed^salt, c.prof.Walk)
}

func (c *capture) dataRNG() *xrand.Source { return xrand.New(c.prof.WalkSeed ^ 0xd00d ^ c.seed) }

func newCapture(p workload.Profile, seed uint64) *capture {
	c := &capture{prof: p, seed: seed, blocks: make([]isa.BasicBlock, replayBlocks)}
	w := c.walker(0)
	for i := range c.blocks {
		c.blocks[i] = w.Next()
	}
	rng := c.dataRNG()
	zipf := xrand.NewZipf(rng, p.DataBlocks, p.DataZipfS)
	load := xrand.NewBernoulli(p.LoadFrac)
	var instr uint64
	for _, bb := range c.blocks {
		for _, a := range bb.Blocks() {
			c.code = append(c.code, a)
			c.mixed = append(c.mixed, a)
			c.stamps = append(c.stamps, instr/2)
		}
		for i := 0; i < bb.NumInstr; i++ {
			if load.Draw(rng) {
				a := dataBase + isa.Addr(zipf.Next()*isa.BlockBytes)
				c.data = append(c.data, a)
				c.mixed = append(c.mixed, a)
			}
		}
		instr += uint64(bb.NumInstr)
	}
	return c
}

// replay is one named measurement: prepare builds fresh state outside
// the timed region and returns the timed body, which reports its
// operation count.
type replay struct {
	name, opsName string
	prepare       func(c *capture) func() uint64
}

// sinkInt keeps replayed results live so the compiler cannot drop the
// calls.
var sinkInt int

func replays() []replay {
	rs := []replay{
		{"workload.next_ns", "workload.next.ops", func(c *capture) func() uint64 {
			w := c.walker(0)
			out := make([]isa.BasicBlock, len(c.blocks))
			return func() uint64 {
				for i := range out {
					out[i] = w.Next()
				}
				return uint64(len(out))
			}
		}},
		{"xrand.zipf_ns", "xrand.zipf.ops", func(c *capture) func() uint64 {
			z := xrand.NewZipf(c.dataRNG(), c.prof.DataBlocks, c.prof.DataZipfS)
			n := len(c.data)
			return func() uint64 {
				for i := 0; i < n; i++ {
					sinkInt += z.Next()
				}
				return uint64(n)
			}
		}},
		cacheReplay("cache.insert_ns.l1i", "cache.insert.l1i.ops", 32<<10, 2, false, func(c *capture) []isa.Addr { return c.code }),
		cacheReplay("cache.access_ns.l1i", "cache.access.l1i.ops", 32<<10, 2, true, func(c *capture) []isa.Addr { return c.code }),
		cacheReplay("cache.insert_ns.llc", "cache.insert.llc.ops", 1<<20, 16, false, func(c *capture) []isa.Addr { return c.mixed }),
		cacheReplay("cache.access_ns.llc", "cache.access.llc.ops", 1<<20, 16, true, func(c *capture) []isa.Addr { return c.mixed }),
		{"uncore.fetch_ns", "uncore.fetch.ops", func(c *capture) func() uint64 {
			h := uncore.New(uncore.DefaultConfig())
			return func() uint64 {
				for i, a := range c.code {
					now := uint64(i)
					h.FetchBlock(now, a)
					if i%16 == 0 {
						h.PollArrivals(now)
					}
				}
				return uint64(len(c.code))
			}
		}},
		{"uncore.data_ns", "uncore.data.ops", func(c *capture) func() uint64 {
			h := uncore.New(uncore.DefaultConfig())
			return func() uint64 {
				for i, a := range c.data {
					h.DataAccess(uint64(i), a)
				}
				return uint64(len(c.data))
			}
		}},
		{"btb.conventional_ns", "btb.conventional.ops", func(c *capture) func() uint64 {
			b := btb.MustNewConventional(2048)
			return func() uint64 {
				for _, bb := range c.blocks {
					if _, ok := b.Lookup(bb.PC); !ok && bb.Kind != isa.BranchNone {
						b.Insert(bb.PC, btb.EntryFromBlock(bb))
					}
				}
				return uint64(len(c.blocks))
			}
		}},
		{"btb.shotgun_ns", "btb.shotgun.ops", func(c *capture) func() uint64 {
			s := btb.MustNewShotgun(btb.MustShotgunSizesForBudget(2048), footprint.Layout8)
			return func() uint64 {
				for _, bb := range c.blocks {
					if s.Lookup(bb.PC).Kind == btb.HitNone {
						s.Insert(bb.PC, btb.EntryFromBlock(bb))
					}
				}
				return uint64(len(c.blocks))
			}
		}},
		bpuReplay("bpu.tage_ns", "bpu.tage.ops", bpu.NewTAGE),
		bpuReplay("bpu.clz_ns", "bpu.clz.ops", bpu.NewCLZTAGE),
		coreReplay("core.ns_per_cycle.ctx1", "core.cycles.ctx1", 1),
		coreReplay("core.ns_per_cycle.ctx4", "core.cycles.ctx4", 4),
		nocReplay("noc.traverse_ns.4x4", "noc.traverse.4x4.ops", 16),
		nocReplay("noc.traverse_ns.8x8", "noc.traverse.8x8.ops", 64),
	}
	for _, m := range sim.Mechanisms() {
		rs = append(rs, evaluateReplay(m))
	}
	return rs
}

func cacheReplay(name, opsName string, size, ways int, warm bool, addrs func(*capture) []isa.Addr) replay {
	return replay{name, opsName, func(c *capture) func() uint64 {
		cc := cache.MustNew(name, size, ways)
		as := addrs(c)
		if warm {
			for _, a := range as {
				cc.Insert(a)
			}
			return func() uint64 {
				for _, a := range as {
					if cc.Access(a) {
						sinkInt++
					}
				}
				return uint64(len(as))
			}
		}
		return func() uint64 {
			for _, a := range as {
				cc.Insert(a)
			}
			return uint64(len(as))
		}
	}}
}

func bpuReplay(name, opsName string, mk func() *bpu.TAGE) replay {
	return replay{name, opsName, func(c *capture) func() uint64 {
		p := mk()
		return func() uint64 {
			var n uint64
			for _, bb := range c.blocks {
				switch {
				case bb.Kind == isa.BranchCond:
					pc := bb.BranchPC()
					if p.Predict(pc) {
						sinkInt++
					}
					p.Update(pc, bb.Taken)
					n++
				case bb.Kind != isa.BranchNone:
					p.NoteUncond()
				}
			}
			return n
		}
	}}
}

// newEngine builds a mechanism's engine from the public constructors,
// at the evaluation's default 2K-entry budget.
func newEngine(m sim.Mechanism, ctx prefetch.Context) prefetch.Engine {
	switch m {
	case sim.FDIP:
		return prefetch.NewFDIP(ctx, 2048)
	case sim.RDIP:
		return prefetch.NewRDIP(ctx, 2048)
	case sim.Delta:
		return prefetch.NewDelta(ctx, 2048)
	case sim.Boomerang:
		return prefetch.NewBoomerang(ctx, 2048)
	case sim.Confluence:
		return prefetch.NewConfluence(ctx)
	case sim.Ideal:
		return prefetch.NewIdeal(ctx)
	case sim.Shotgun:
		return prefetch.NewShotgun(ctx, prefetch.ShotgunConfig{
			Sizes: btb.MustShotgunSizesForBudget(2048), Layout: footprint.Layout8, Mode: prefetch.RegionVector})
	}
	return prefetch.NewNone(ctx, 2048)
}

// evaluateReplay drives one engine over the block stream the way the
// core's runahead does: Evaluate once per block with the RAS frame for
// returns, completed fills delivered through OnArrival, and OnRetire to
// train footprints and histories.
func evaluateReplay(m sim.Mechanism) replay {
	name := "prefetch." + string(m) + ".evaluate_ns"
	return replay{name, "prefetch." + string(m) + ".evaluate.ops", func(c *capture) func() uint64 {
		h := uncore.New(uncore.DefaultConfig())
		e := newEngine(m, prefetch.Context{Hier: h, Dec: c.prof.Decoder()})
		ras := bpu.NewRAS(32)
		return func() uint64 {
			var now uint64
			for _, bb := range c.blocks {
				var call isa.Addr
				ok := false
				if bb.Kind.IsReturn() {
					var f bpu.RASEntry
					f, ok = ras.Pop()
					call = f.CallBlock
				}
				e.Evaluate(now, bb, call, ok)
				if bb.Kind.IsCallLike() {
					ras.Push(bpu.RASEntry{ReturnAddr: bb.FallThrough(), CallBlock: bb.PC})
				}
				if arr := h.PollArrivals(now); len(arr) > 0 {
					e.OnArrival(now, arr)
				}
				e.OnRetire(bb)
				now += uint64(bb.NumInstr)/2 + 1
			}
			return uint64(len(c.blocks))
		}
	}}
}

// coreReplay runs a Shotgun core with the given number of hardware
// contexts for a fixed instruction count; ops are simulated cycles,
// read from Now().
func coreReplay(name, opsName string, contexts int) replay {
	return replay{name, opsName, func(c *capture) func() uint64 {
		p := c.prof
		h := uncore.New(uncore.DefaultConfig())
		e := newEngine(sim.Shotgun, prefetch.Context{Hier: h, Dec: p.Decoder()})
		cfg := core.Config{LoadFrac: p.LoadFrac, DataBlocks: p.DataBlocks, DataZipfS: p.DataZipfS, DataSeed: p.WalkSeed ^ 0xd00d ^ c.seed}
		var cr *core.Core
		if contexts == 1 {
			cr = core.New(cfg, c.walker(0), e, h)
		} else {
			streams := make([]workload.Stream, contexts)
			for k := range streams {
				streams[k] = c.walker(uint64(k) * 0xbf58476d1ce4e5b9)
			}
			cr = core.NewMultiContext(cfg, streams, e, h)
		}
		return func() uint64 {
			cr.Run(replayCoreInstr)
			return cr.Now()
		}
	}}
}

// nocReplay traverses a shared mesh sized for n active cores (4x4 for
// 16, 8x8 for 64) once per captured code block, at its cycle stamp.
func nocReplay(name, opsName string, n int) replay {
	return replay{name, opsName, func(c *capture) func() uint64 {
		m := noc.MustNew(noc.SharedConfig(n))
		return func() uint64 {
			for _, now := range c.stamps {
				sinkInt += m.Traverse(now)
			}
			return uint64(len(c.stamps))
		}
	}}
}

// runReplays captures every profile's input once, then times each
// replay replayReps times over all profiles, reporting the median
// ns/op and the op count.
func runReplays(profs []workload.Profile, seed uint64, m metrics) {
	caps := make([]*capture, len(profs))
	for i, p := range profs {
		caps[i] = newCapture(p, seed)
	}
	for _, r := range replays() {
		var ops uint64
		per := make([]float64, 0, replayReps)
		for rep := 0; rep < replayReps; rep++ {
			var ns int64
			ops = 0
			for _, c := range caps {
				body := r.prepare(c)
				t := time.Now()
				ops += body()
				ns += int64(time.Since(t))
			}
			per = append(per, float64(ns)/float64(max(ops, 1)))
		}
		sort.Float64s(per)
		m.set(r.name, per[len(per)/2], "ns")
		m.set(r.opsName, float64(ops), "count")
	}
}
