// Package core models one out-of-order server core (Table 3: 3-way OoO,
// 128-entry ROB) with a decoupled front-end: a branch-prediction unit
// that runs ahead of fetch filling a fetch target queue (FTQ), a fetch
// engine that consumes the FTQ through the L1-I, and a retire-side
// backend that exposes front-end stall cycles — the paper's primary
// metric.
//
// The simulation is trace-driven: the workload walker supplies the
// correct execution path, and the core charges the penalties the modeled
// structures (BTB organization, TAGE, RAS, caches) would have incurred —
// decode-time re-steers for undetected taken branches, execute-time
// flushes for direction/return mispredictions, and fetch stalls for L1-I
// misses. A control-flow delivery engine (package prefetch) supplies the
// BTB organization and prefetching policy.
package core

import (
	"shotgun/internal/bpu"
	"shotgun/internal/isa"
	"shotgun/internal/prefetch"
	"shotgun/internal/uncore"
	"shotgun/internal/workload"
)

// Config sets the core's microarchitectural parameters. Zero fields
// default to Table 3 values.
type Config struct {
	FetchWidth  int // 3 (3-way core)
	RetireWidth int // 3
	ROBEntries  int // 128
	FTQEntries  int // 32 (Section 5.2)

	// RunaheadPerCycle bounds BPU throughput in basic blocks per cycle.
	RunaheadPerCycle int // 2

	// DecodeRedirectCycles is the bubble for a taken branch undetected
	// until decode (BTB miss); ExecRedirectCycles the flush penalty for
	// direction/return-target mispredictions resolved at execute.
	DecodeRedirectCycles int // 8
	ExecRedirectCycles   int // 14

	// ExecLatencyCycles is the dispatch-to-complete latency of ordinary
	// instructions; loads add their memory latency.
	ExecLatencyCycles int // 3

	RASEntries int // 32

	// CLZTage selects the CLZ-indexed TAGE variant (bpu.NewCLZTAGE) as
	// the direction predictor; false is the default TAGE.
	CLZTage bool

	// Data-side behaviour (from the workload profile).
	LoadFrac   float64
	DataBlocks int
	DataZipfS  float64
	DataSeed   uint64
}

func (c *Config) setDefaults() {
	if c.FetchWidth == 0 {
		c.FetchWidth = 3
	}
	if c.RetireWidth == 0 {
		c.RetireWidth = 3
	}
	if c.ROBEntries == 0 {
		c.ROBEntries = 128
	}
	if c.FTQEntries == 0 {
		c.FTQEntries = 32
	}
	if c.RunaheadPerCycle == 0 {
		c.RunaheadPerCycle = 2
	}
	if c.DecodeRedirectCycles == 0 {
		c.DecodeRedirectCycles = 8
	}
	if c.ExecRedirectCycles == 0 {
		c.ExecRedirectCycles = 14
	}
	if c.ExecLatencyCycles == 0 {
		c.ExecLatencyCycles = 3
	}
	if c.RASEntries == 0 {
		c.RASEntries = 32
	}
	if c.LoadFrac == 0 {
		c.LoadFrac = 0.25
	}
	if c.DataBlocks == 0 {
		c.DataBlocks = 8 << 10
	}
	if c.DataZipfS == 0 {
		c.DataZipfS = 0.8
	}
	if c.DataSeed == 0 {
		c.DataSeed = 0xdada
	}
}

// dataBase places the synthetic data working set away from code.
const dataBase = isa.Addr(0x2000_0000_0000)

// Stats aggregates the core's measurement counters.
type Stats struct {
	Cycles       uint64
	Instructions uint64

	// FrontEndStallCycles counts cycles where retirement was starved by
	// an empty ROB (nothing in flight: the front-end failed to supply
	// instructions). BackEndStallCycles counts zero-retire cycles with a
	// non-empty ROB (data stalls).
	FrontEndStallCycles uint64
	BackEndStallCycles  uint64

	// FetchStallCycles counts cycles fetch waited on an L1-I fill.
	FetchStallCycles uint64

	DecodeRedirects uint64
	ExecRedirects   uint64
	DirMispredicts  uint64
	RASMispredicts  uint64

	CondBranches uint64
	Branches     uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MPKI converts an event count to events per kilo-instruction.
func (s Stats) MPKI(events uint64) float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(events) / float64(s.Instructions) * 1000
}

// pblock is one trace block in the lookahead window with its cached BPU
// evaluation (evaluated exactly once, in trace order, so TAGE and RAS see
// a consistent in-order stream even across flush re-walks).
type pblock struct {
	bb             isa.BasicBlock
	evaluated      bool
	decodeRedirect bool
	execRedirect   bool
}

// Core simulates one core running basic-block traces under a control-
// flow delivery engine. Its front-end serves one or more hardware
// contexts; the classic single-context core is the one-context case.
type Core struct {
	cfg    Config
	engine prefetch.Engine
	hier   *uncore.Hierarchy

	tage *bpu.TAGE

	// ranks is the live data side's reusable per-block buffer of load
	// ranks (dataGen.draw).
	ranks []uint16

	now uint64

	// ctxs are the hardware contexts sharing this core's fetch engine,
	// prefetch engine/BTB, L1-I, direction predictor, ROB and retire
	// stage, with sub-cycle switch-on-stall: in the same cycle a context
	// stalls, the runahead and the fetch engine move to the next ready
	// sibling. There is always at least one.
	ctxs   []hwContext
	runCtx int // context the BPU runahead is following
	fetCtx int // context the fetch engine last dispatched for

	fetchBusyUntil uint64

	// rob holds completion times; in-order retire from the head.
	rob     []uint64
	robHead int
	robLen  int

	// blocksDispatched counts trace blocks dispatched into the ROB — the
	// progress unit of sampled execution (RunBlocks).
	blocksDispatched uint64

	stats Stats
}

// hwContext is one hardware context: its own trace stream, return-address
// stack, lookahead window and data-side RNG state. Everything else —
// TAGE, engine, caches, fetch bandwidth, ROB, retire — is shared with its
// siblings, which is exactly where the SMT pressure of a multi-context
// core comes from.
type hwContext struct {
	// A live context walks trace and draws its data side from data; a
	// replaying one (tape != nil) reads both from a Tape instead.
	trace workload.Stream
	data  dataGen
	tape  *tapeReader
	ras   *bpu.RAS

	// win is the lookahead window, a ring allocated once: the n entries
	// from head are pending blocks in trace order, the first ftqLen of
	// them the FTQ (evaluated, awaiting fetch) and the rest awaiting
	// evaluation. The runahead only tops the window up to ftqLen+1 with
	// ftqLen below FTQEntries, so n never exceeds FTQEntries.
	win    []pblock
	head   int
	n      int
	ftqLen int

	runStallUntil uint64
	// wrongPath is set when the runahead evaluated a block whose branch
	// re-steers the pipeline: until that block is dispatched (and the
	// flush happens), the real BPU would be predicting down the wrong
	// path, so no further correct-path blocks may be evaluated or
	// prefetched.
	wrongPath bool

	headIssued  bool
	headReadyAt uint64
}

// pending returns the context's i-th pending block (0 is the FTQ head).
func (hc *hwContext) pending(i int) *pblock {
	return &hc.win[(hc.head+i)&(len(hc.win)-1)]
}

// nextBlock pulls the context's next trace block.
func (hc *hwContext) nextBlock() isa.BasicBlock {
	if hc.tape != nil {
		return hc.tape.next()
	}
	return hc.trace.Next()
}

// ensurePending tops up the context's lookahead window from its trace.
func (hc *hwContext) ensurePending(n int) {
	for hc.n < n {
		*hc.pending(hc.n) = pblock{bb: hc.nextBlock()}
		hc.n++
	}
}

// popPending removes the context's FTQ head after dispatch.
func (hc *hwContext) popPending() {
	hc.head = (hc.head + 1) & (len(hc.win) - 1)
	hc.n--
	hc.ftqLen--
	hc.headIssued = false
}

// fillWaiting reports whether the context's FTQ head is an issued fetch
// still waiting on its L1-I fill.
func (hc *hwContext) fillWaiting(now uint64) bool {
	return hc.ftqLen > 0 && hc.headIssued && hc.headReadyAt > now
}

// ctxDataSalt decorrelates per-context data-side RNG streams within one
// core. Context 0 is unsalted, so adding contexts to a core leaves
// context 0's data stream unchanged.
func ctxDataSalt(k int) uint64 {
	return uint64(k) * 0x94d049bb133111eb
}

// New builds a single-context core over the given trace, engine and
// hierarchy.
func New(cfg Config, trace workload.Stream, engine prefetch.Engine, hier *uncore.Hierarchy) *Core {
	return NewMultiContext(cfg, []workload.Stream{trace}, engine, hier)
}

// NewMultiContext builds a core whose front-end is shared by
// len(streams) hardware contexts, one trace stream per context. Each
// context gets its own RAS, lookahead window and salted data-side RNG;
// the fetch engine, prefetch engine/BTB, caches, direction predictor,
// ROB and retire stage are shared. A single stream is the classic
// single-context core. A nil stream marks a context that Replay feeds
// from a tape before the first Tick.
func NewMultiContext(cfg Config, streams []workload.Stream, engine prefetch.Engine, hier *uncore.Hierarchy) *Core {
	if len(streams) == 0 {
		panic("core: NewMultiContext needs at least one stream")
	}
	cfg.setDefaults()
	checkDataBlocks(&cfg)
	tage := bpu.NewTAGE()
	if cfg.CLZTage {
		tage = bpu.NewCLZTAGE()
	}
	c := &Core{
		cfg:    cfg,
		engine: engine,
		hier:   hier,
		tage:   tage,
		ranks:  make([]uint16, 0, isa.MaxBlockInstrs),
		ctxs:   make([]hwContext, len(streams)),
		rob:    make([]uint64, cfg.ROBEntries),
	}
	window := 1
	for window < cfg.FTQEntries {
		window *= 2
	}
	for k, s := range streams {
		c.ctxs[k] = hwContext{
			trace: s,
			ras:   bpu.NewRAS(cfg.RASEntries),
			win:   make([]pblock, window),
		}
		if s != nil {
			c.ctxs[k].data = newDataGen(&cfg, k)
		}
	}
	return c
}

// checkDataBlocks enforces the data side's 15-bit Zipf ranks.
func checkDataBlocks(cfg *Config) {
	if cfg.DataBlocks > rankHit {
		panic("core: DataBlocks exceeds the data side's 32768 ranks")
	}
}

// Replay feeds context k from a tape recorded for it (NewTape with this
// core's Config and k) in place of its live walk and data draws. A
// non-nil dir, allowed only on a one-context core, also replays the
// direction predictions; the predictor is then trained only where the
// lane ends. Call it before the first Tick, for exact runs only:
// functional warming and skimming read the live sources.
func (c *Core) Replay(k int, t *Tape, dir *DirTape) {
	if dir != nil && len(c.ctxs) != 1 {
		panic("core: a predictor lane needs a one-context core")
	}
	r := &tapeReader{}
	r.start(t)
	r.dir = dir
	c.ctxs[k].tape = r
}

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// Stats returns a snapshot of the counters.
func (c *Core) Stats() Stats { return c.stats }

// Instructions returns the retired-instruction counter alone — the
// per-tick progress probe of the scenario kernels, which must not copy
// the whole Stats struct every cycle.
func (c *Core) Instructions() uint64 { return c.stats.Instructions }

// Hierarchy returns the memory hierarchy.
func (c *Core) Hierarchy() *uncore.Hierarchy { return c.hier }

// Engine returns the control-flow delivery engine.
func (c *Core) Engine() prefetch.Engine { return c.engine }

// ResetStats clears measurement counters at the warmup boundary without
// touching microarchitectural state.
func (c *Core) ResetStats() {
	c.stats = Stats{}
	c.hier.ResetStats()
	c.engine.ResetStats()
	c.tage.ResetStats()
}

// Run advances the simulation until at least n instructions have retired
// past the point this call was made, returning the cycle count consumed.
// After each real tick it skips ahead over the provably-idle span to the
// core's next event (NextEvent/AdvanceIdle), which is bit-identical to
// ticking every cycle.
func (c *Core) Run(n uint64) uint64 {
	return c.runUntil(&c.stats.Instructions, c.stats.Instructions+n)
}

// BlocksDispatched returns how many trace blocks have been dispatched —
// sampled execution's progress unit.
func (c *Core) BlocksDispatched() uint64 { return c.blocksDispatched }

// RunBlocks advances the detailed simulation until n more trace blocks
// have been dispatched, returning the cycles consumed. Sampling measures
// in blocks rather than instructions so unit boundaries land on trace
// positions, independent of retire lag.
func (c *Core) RunBlocks(n uint64) uint64 {
	return c.runUntil(&c.blocksDispatched, c.blocksDispatched+n)
}

// runUntil ticks, skipping idle spans, until *progress reaches target.
func (c *Core) runUntil(progress *uint64, target uint64) uint64 {
	startCycles := c.stats.Cycles
	for *progress < target {
		c.Tick()
		if *progress >= target {
			// The crossing tick ends the run; skipping the idle span that
			// follows it would charge cycles a per-cycle loop never runs.
			break
		}
		if next := c.NextEvent(); next > c.now {
			c.AdvanceIdle(next - c.now)
		}
	}
	return c.stats.Cycles - startCycles
}

// BeginWarm transitions from detailed execution to functional warming.
// The lookahead window holds trace blocks already consumed from the
// stream; they are drained through the warm path — cache/data warming
// for every entry, plus predictor training for the entries the runahead
// never evaluated (evaluated entries trained TAGE/RAS at evaluate time;
// re-training them would double-count) — and the front-end state is
// reset so the next detailed phase starts from a clean FTQ. The clock,
// the ROB, and in-flight fills are left untouched: warming takes zero
// simulated time.
//
// Functional warming (BeginWarm, WarmBlock(s), SkimBlocks) acts on
// context 0; sampled execution runs single-context cores only.
func (c *Core) BeginWarm() {
	hc := c.liveCtx0()
	for i := 0; i < hc.n; i++ {
		if p := hc.pending(i); p.evaluated {
			c.warmCaches(p.bb)
		} else {
			c.WarmBlock(p.bb)
		}
	}
	hc.n = 0
	hc.ftqLen = 0
	hc.headIssued = false
	hc.wrongPath = false
	hc.runStallUntil = 0
	c.fetchBusyUntil = 0
}

// WarmBlock functionally executes one trace block: predictor and engine
// metadata training plus untimed cache warming, with no cycle cost.
func (c *Core) WarmBlock(bb isa.BasicBlock) {
	c.warmBPU(bb)
	c.warmCaches(bb)
}

// WarmBlocks functionally executes the next n trace blocks, returning
// the instructions they carry (the fast-forwarded instruction count).
func (c *Core) WarmBlocks(n uint64) uint64 {
	trace := c.liveCtx0().trace
	var instr uint64
	for i := uint64(0); i < n; i++ {
		bb := trace.Next()
		instr += uint64(bb.NumInstr)
		c.WarmBlock(bb)
	}
	return instr
}

// SkimBlocks fast-forwards the stream n blocks touching only the LLC —
// no cycles, no RNG draws, no L1/BTB/predictor training. Sampling uses
// it for the distant part of a period gap when a bounded functional-
// warming window is configured: the small structures are rebuilt by the
// warming window and detailed warm-up that follow, but the LLC's
// instruction working set is too large to rebuild in any affordable
// window, so it alone must track the stream continuously.
func (c *Core) SkimBlocks(n uint64) uint64 {
	trace := c.liveCtx0().trace
	var instr uint64
	// Consecutive basic blocks mostly share one 64-byte cache block
	// (~5.5 instructions per bb); touching it once per run of repeats
	// keeps the same LLC contents and recency at a fraction of the
	// Access calls, which dominate the skim's cost.
	last := isa.Addr(1) // never a block-aligned address
	for i := uint64(0); i < n; i++ {
		bb := trace.Next()
		instr += uint64(bb.NumInstr)
		first, lastBlk := bb.BlockSpan()
		for blk := first; blk <= lastBlk; blk += isa.BlockBytes {
			if blk == last {
				continue
			}
			c.hier.WarmLLC(blk)
			last = blk
		}
	}
	return instr
}

// liveCtx0 returns context 0 for functional warming, which only a live
// context supports: skimming consumes blocks without data draws, so a
// tape's lanes would fall out of step.
func (c *Core) liveCtx0() *hwContext {
	hc := &c.ctxs[0]
	if hc.tape != nil {
		panic("core: functional warming on a replayed context")
	}
	return hc
}

// warmBPU mirrors evaluate's exact predictor call sequence — RAS pop for
// returns, predictDir (Predict counts lookups, which paces the use-bit
// decay), RAS push for calls — so the direction predictor and RAS cross
// a warming gap in the same state a detailed run would leave them.
func (c *Core) warmBPU(bb isa.BasicBlock) {
	ras := c.ctxs[0].ras
	if bb.Kind.IsReturn() {
		ras.Pop()
	}
	c.engine.Warm(bb)
	predictDir(c.tage, bb)
	if bb.Kind.IsCallLike() {
		ras.Push(bpu.RASEntry{ReturnAddr: bb.FallThrough(), CallBlock: bb.PC})
	}
}

// warmCaches applies a block's untimed memory-side effects: L1-I/LLC
// warming over the block span, the identical per-instruction Bernoulli
// and per-load Zipf draws the detailed dispatch consumes (keeping the
// data RNG stream aligned across mode switches) with L1-D/LLC warming
// for the loads, and the engine's retire-order training hook.
func (c *Core) warmCaches(bb isa.BasicBlock) {
	first, last := bb.BlockSpan()
	for blk := first; blk <= last; blk += isa.BlockBytes {
		c.hier.WarmFetch(blk)
	}
	_, ranks := c.ctxs[0].data.draw(bb.NumInstr, c.ranks[:0])
	for _, r := range ranks {
		c.hier.WarmData(dataAddr(r))
	}
	c.engine.OnRetire(bb)
}

// NextEvent returns the earliest cycle at which Tick can do anything
// beyond idle accounting: materialize an arrival, evaluate a block into
// some context's FTQ, issue or complete a fetch, dispatch, or retire.
// Every cycle in [Now, NextEvent) is provably idle — a Tick there
// mutates nothing but the stall counters, Cycles, and the clock (exactly
// what AdvanceIdle bulk-applies) and touches no shared uncore state.
//
// The deadline may be conservative (an "active" tick may still find
// nothing to do after a flush re-steers state), but it is never late:
// each branch below mirrors one gating condition of Tick's sub-units,
// and each such condition can only change at a deadline this function
// already includes. A finite value always exists while the traces have
// blocks — the runahead can act whenever a context has FTQ room and is
// on the right path, a wrong path implies an undispatched FTQ entry, and
// a full FTQ implies fetch or retire has a pending deadline.
func (c *Core) NextEvent() uint64 {
	// Completed fills are materialized the cycle the watermark expires.
	next := c.hier.NextArrival()

	fetchBusy := c.now < c.fetchBusyUntil
	anyFTQ := false
	for i := range c.ctxs {
		hc := &c.ctxs[i]
		// Runahead: able to evaluate now unless stalled, wrong-path, or
		// out of FTQ room; a pending reactive resolution is a deadline.
		if !hc.wrongPath && hc.ftqLen < c.cfg.FTQEntries {
			if c.now >= hc.runStallUntil {
				return c.now
			}
			if hc.runStallUntil < next {
				next = hc.runStallUntil
			}
		}
		if hc.ftqLen == 0 {
			continue
		}
		anyFTQ = true
		if fetchBusy {
			continue
		}
		// Fetch, past the bandwidth boundary: an unissued head or a
		// dispatchable head is activity now; a fill wait is a deadline.
		switch {
		case !hc.headIssued:
			return c.now
		case hc.headReadyAt > c.now:
			if hc.headReadyAt < next {
				next = hc.headReadyAt
			}
		case c.robFree() >= hc.pending(0).bb.NumInstr:
			return c.now
			// Otherwise this head waits on backend pressure, which only
			// the retire deadline below can relieve.
		}
	}
	// The fetch bandwidth boundary is a deadline while any FTQ is fed.
	if anyFTQ && fetchBusy && c.fetchBusyUntil < next {
		next = c.fetchBusyUntil
	}

	// Retire: the head of the ROB completes at a known cycle.
	if c.robLen > 0 && c.rob[c.robHead] < next {
		next = c.rob[c.robHead]
	}

	if next < c.now {
		return c.now
	}
	return next
}

// AdvanceIdle bulk-applies k idle cycles: exactly the state a Tick
// performs on a cycle strictly before NextEvent — the fetch-stall,
// front-end/back-end stall classification, the cycle counter and the
// clock — with no other mutation. Callers must only skip spans that end
// at or before NextEvent; the stall predicates below are constant
// across such a span because every cycle that could flip them is a
// deadline NextEvent includes.
func (c *Core) AdvanceIdle(k uint64) {
	if k == 0 {
		return
	}
	// fetch() counts a fill-wait cycle iff it is past the bandwidth
	// boundary with some context's issued head not yet arrived.
	if c.now >= c.fetchBusyUntil {
		for i := range c.ctxs {
			if c.ctxs[i].fillWaiting(c.now) {
				c.stats.FetchStallCycles += k
				break
			}
		}
	}
	// retire() classifies every zero-retire cycle; idle cycles retire
	// nothing by definition.
	if c.robLen == 0 {
		c.stats.FrontEndStallCycles += k
	} else {
		c.stats.BackEndStallCycles += k
	}
	c.now += k
	c.stats.Cycles += k
}

// Tick advances the simulation by one cycle.
func (c *Core) Tick() {
	// 1. Materialize completed fills; let the engine predecode them.
	if arr := c.hier.PollArrivals(c.now); arr != nil {
		c.engine.OnArrival(c.now, arr)
	}

	// 2. Branch-prediction unit runahead: evaluate blocks into the FTQs.
	c.runahead()

	// 3. Fetch: consume an FTQ head through the L1-I into the ROB.
	c.fetch()

	// 4. Retire up to RetireWidth completed instructions in order.
	c.retire()

	c.now++
	c.stats.Cycles++
}

// runahead advances the BPU: up to RunaheadPerCycle blocks are evaluated
// (BTB lookup, direction/return prediction, engine prefetching) and
// appended to the FTQ of the context being followed. The BPU keeps
// following c.runCtx while it can make progress and switches to the next
// ready sibling the moment it cannot — switch-on-stall at zero cost.
func (c *Core) runahead() {
	n := len(c.ctxs)
	for i := 0; i < c.cfg.RunaheadPerCycle; i++ {
		k := c.runCtx
		hc := &c.ctxs[k]
		// Not stalled on a reactive resolution, not down a wrong path,
		// and FTQ room left: otherwise try the next sibling.
		for j := 1; c.now < hc.runStallUntil || hc.wrongPath || hc.ftqLen >= c.cfg.FTQEntries; j++ {
			if j == n {
				return // every context stalled, wrong-path, or FTQ-full
			}
			if k++; k == n {
				k = 0
			}
			hc = &c.ctxs[k]
		}
		c.runCtx = k
		hc.ensurePending(hc.ftqLen + 1)
		p := hc.pending(hc.ftqLen)
		if !p.evaluated {
			if stall := c.evaluate(hc, p); stall > c.now {
				hc.runStallUntil = stall
			}
		}
		if p.decodeRedirect || p.execRedirect {
			hc.wrongPath = true
		}
		hc.ftqLen++
	}
}

// evaluate performs the one-time BPU evaluation of a context's pending
// block, returning a non-zero stall deadline for reactive resolutions.
func (c *Core) evaluate(hc *hwContext, p *pblock) uint64 {
	bb := p.bb
	p.evaluated = true

	// Returns consult the RAS (popped at predict time); Shotgun
	// additionally uses the popped call-block address to locate the
	// return footprint in the U-BTB.
	var rasCallBlock, rasPredTarget isa.Addr
	rasOK := false
	rasWrong := false
	if bb.Kind.IsReturn() {
		e, ok := hc.ras.Pop()
		rasOK = ok
		rasCallBlock = e.CallBlock
		rasPredTarget = e.ReturnAddr
		rasWrong = !ok || e.ReturnAddr != bb.Target
	}

	ev := c.engine.Evaluate(c.now, bb, rasCallBlock, rasOK)
	pred := c.predict(hc, bb)

	if bb.Kind != isa.BranchNone {
		c.stats.Branches++
	}

	switch {
	case bb.Kind == isa.BranchCond:
		c.stats.CondBranches++
		if ev.BTBHit && pred != bb.Taken {
			p.execRedirect = true
			c.stats.DirMispredicts++
			// The runahead chases the predicted (wrong) direction.
			wrong := bb.Target
			if !bb.Taken {
				wrong = bb.FallThrough()
			}
			c.engine.OnMispredict(c.now, wrong)
		}
	case bb.Kind.IsCallLike():
		hc.ras.Push(bpu.RASEntry{ReturnAddr: bb.FallThrough(), CallBlock: bb.PC})
	case bb.Kind.IsReturn():
		if ev.BTBHit && rasWrong {
			p.execRedirect = true
			c.stats.RASMispredicts++
			if rasOK {
				// The runahead chases the stale predicted return target.
				c.engine.OnMispredict(c.now, rasPredTarget)
			}
		}
	}

	if ev.DecodeRedirect {
		p.decodeRedirect = true
	}
	return ev.StallUntil
}

// predict returns the direction prediction for a block being evaluated,
// from the context's predictor lane while it lasts and from the shared
// predictor otherwise. A replayed prediction still counts the lookup, so
// the predictor's stats and its decay pacing stay those of a live run
// when the lane ends and the predictor takes over from the lane's.
func (c *Core) predict(hc *hwContext, bb isa.BasicBlock) bool {
	if r := hc.tape; r != nil && r.dir != nil {
		if pred, ok := r.predict(); ok {
			if bb.Kind == isa.BranchCond {
				c.tage.Lookups++
				if pred != bb.Taken {
					c.tage.Mispredicts++
				}
			}
			return pred
		}
		c.tage.CopyFrom(r.dir.tage)
		r.dir = nil
	}
	return predictDir(c.tage, bb)
}

// issueHead issues the demand fetch for a context's FTQ head, recording
// when its last block arrives.
func (c *Core) issueHead(hc *hwContext) {
	ready := c.now
	first, last := hc.pending(0).bb.BlockSpan()
	for blk := first; blk <= last; blk += isa.BlockBytes {
		r, src := c.hier.FetchBlock(c.now, blk)
		c.engine.OnFetch(c.now, blk, src)
		if src == uncore.SrcLLC || src == uncore.SrcMemory {
			c.engine.OnDemandMiss(c.now, blk)
		}
		if r > ready {
			ready = r
		}
	}
	hc.headIssued = true
	hc.headReadyAt = ready
}

// fetch runs the shared fetch engine: once past the bandwidth boundary
// it first issues every unissued FTQ head (demand probes overlap across
// contexts — fetch-under-fill), then dispatches the instructions of the
// first head, round-robin from the last context served, that has arrived
// and fits the ROB. At most one context dispatches per bandwidth slot; a
// cycle where the only eligible heads are waiting on fills is a fetch
// stall.
func (c *Core) fetch() {
	if c.now < c.fetchBusyUntil {
		return
	}
	for i := range c.ctxs {
		if hc := &c.ctxs[i]; hc.ftqLen > 0 && !hc.headIssued {
			c.issueHead(hc)
		}
	}
	n := len(c.ctxs)
	k := c.fetCtx
	for j := 0; j < n; j++ {
		if j > 0 {
			if k++; k == n {
				k = 0
			}
		}
		hc := &c.ctxs[k]
		if hc.ftqLen == 0 || hc.headReadyAt > c.now {
			continue
		}
		p := hc.pending(0)
		if c.robFree() < p.bb.NumInstr {
			continue // backend pressure
		}
		c.dispatch(hc, p.bb)

		// Fetch bandwidth: a 3-wide front-end needs ceil(n/width) cycles.
		busy := uint64((p.bb.NumInstr + c.cfg.FetchWidth - 1) / c.cfg.FetchWidth)
		c.fetchBusyUntil = c.now + busy

		// Redirects: flush the FTQ beyond the branch and re-steer.
		switch {
		case p.decodeRedirect:
			c.stats.DecodeRedirects++
			c.redirect(hc, c.cfg.DecodeRedirectCycles)
		case p.execRedirect:
			c.stats.ExecRedirects++
			c.redirect(hc, c.cfg.ExecRedirectCycles)
		}
		hc.popPending()
		c.fetCtx = k
		return
	}
	// No context could dispatch; charge one fill-wait cycle iff some
	// context is actually waiting on an issued fetch.
	for i := range c.ctxs {
		if c.ctxs[i].fillWaiting(c.now) {
			c.stats.FetchStallCycles++
			return
		}
	}
}

// redirect models a pipeline re-steer of one context: the bubble
// occupies the shared fetch engine, and the context's FTQ contents past
// the redirecting branch are discarded (the runahead re-walks them;
// cached evaluations prevent double training).
func (c *Core) redirect(hc *hwContext, penalty int) {
	until := c.now + uint64(penalty)
	if until > c.fetchBusyUntil {
		c.fetchBusyUntil = until
	}
	hc.ftqLen = 1 // keep only the block being dispatched
	if hc.runStallUntil > c.now {
		// The pending resolution belongs to a flushed entry; the
		// re-walk will find the BTB filled, so drop the stall.
		hc.runStallUntil = c.now
	}
	// The flush re-steers the BPU onto the correct path.
	hc.wrongPath = false
}

// dispatch enters a context's block into the ROB and notifies the engine
// of the retire-order stream (dispatch order equals retire order).
//
// The data side runs off a per-block schedule: which instructions load
// and from which data block, drawn live (dataGen.draw, on the context's
// data RNG in per-instruction order) or read from the context's tape.
// Then the hierarchy is charged and the ROB filled in instruction order;
// non-loads make no hierarchy call. A one-context core replaying a tape
// also takes each load's L1-D outcome from it: no other stream shares
// its L1-D, so the tape's replica predicts it exactly.
func (c *Core) dispatch(hc *hwContext, bb isa.BasicBlock) {
	var mask uint32
	var ranks []uint16
	if hc.tape != nil {
		mask, ranks = hc.tape.loads(bb.NumInstr)
	} else {
		mask, ranks = hc.data.draw(bb.NumInstr, c.ranks[:0])
		c.ranks = ranks
	}
	l1dKnown := hc.tape != nil && len(c.ctxs) == 1
	execLat := uint64(c.cfg.ExecLatencyCycles)
	for i := 0; i < bb.NumInstr; i++ {
		complete := c.now + execLat
		if mask&(1<<i) != 0 {
			r := ranks[0]
			ranks = ranks[1:]
			var ready uint64
			switch {
			case !l1dKnown:
				ready, _ = c.hier.DataAccess(c.now, dataAddr(r))
			case r&rankHit != 0:
				c.hier.DataHit()
				ready = c.now
			default:
				ready = c.hier.DataMiss(c.now, dataAddr(r))
			}
			if ready+execLat > complete {
				complete = ready + execLat
			}
		}
		c.robPush(complete)
	}
	c.blocksDispatched++
	c.engine.OnRetire(bb)
}

func (c *Core) robFree() int { return c.cfg.ROBEntries - c.robLen }

func (c *Core) robPush(complete uint64) {
	// robHead+robLen < 2*ROBEntries always, so a compare-subtract wraps
	// the ring without the general modulo.
	idx := c.robHead + c.robLen
	if idx >= c.cfg.ROBEntries {
		idx -= c.cfg.ROBEntries
	}
	c.rob[idx] = complete
	c.robLen++
}

// retire pops up to RetireWidth completed instructions in order and
// classifies zero-retire cycles as front-end or back-end stalls.
func (c *Core) retire() {
	retired := 0
	for retired < c.cfg.RetireWidth && c.robLen > 0 && c.rob[c.robHead] <= c.now {
		c.robHead++
		if c.robHead == c.cfg.ROBEntries {
			c.robHead = 0
		}
		c.robLen--
		retired++
	}
	c.stats.Instructions += uint64(retired)
	if retired == 0 {
		if c.robLen == 0 {
			c.stats.FrontEndStallCycles++
		} else {
			c.stats.BackEndStallCycles++
		}
	}
}
