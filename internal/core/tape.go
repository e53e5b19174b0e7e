package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"shotgun/internal/bpu"
	"shotgun/internal/cache"
	"shotgun/internal/isa"
	"shotgun/internal/workload"
	"shotgun/internal/xrand"
)

// Functional tapes. A hardware context's block sequence, its data-side
// draws and — on a one-context core — its direction predictions depend
// only on the stream it walks, never on the mechanism, the uncore or
// timing: every block is pulled, evaluated and dispatched exactly once,
// in trace order. A Tape records that sequence once, through the same
// walker, dataGen and predictDir the live core uses, and any number of
// cores, serial or concurrent, replay it (Core.Replay).
//
// Lanes are chunked and append-only. The first reader to reach an
// unrecorded position extends the tape under its mutex, then publishes
// the new length atomically; chunk contents below that length never
// change again, so readers touch them without locks.

const (
	tapeChunkBlocks = 1 << 12 // walk records and predictor bits per chunk
	tapeChunkWords  = 1 << 13 // data-lane words per chunk
	tapeBatch       = 256     // blocks recorded past a reader's need
)

type (
	walkChunk [tapeChunkBlocks]workload.Ref
	dataChunk [tapeChunkWords]uint16
	dirChunk  [tapeChunkBlocks / 64]uint64
)

// dataGen is a context's live data side: per instruction, a LoadFrac
// Bernoulli on the context's data RNG, and for each load a Zipf rank
// over the data working set.
type dataGen struct {
	rng  *xrand.Source
	zipf *xrand.Zipf
	load xrand.Bernoulli
}

func newDataGen(cfg *Config, k int) dataGen {
	rng := xrand.New(cfg.DataSeed ^ ctxDataSalt(k))
	return dataGen{
		rng:  rng,
		zipf: xrand.NewZipf(rng, cfg.DataBlocks, cfg.DataZipfS),
		load: xrand.NewBernoulli(cfg.LoadFrac),
	}
}

// draw makes one block's data-side draws in instruction order: bit i of
// the returned mask is set when instruction i loads, and the loads'
// Zipf ranks are appended to ranks in the same order.
func (g *dataGen) draw(numInstr int, ranks []uint16) (uint32, []uint16) {
	rng, zipf, load := g.rng, g.zipf, g.load
	var mask uint32
	for i := 0; i < numInstr; i++ {
		if load.Draw(rng) {
			mask |= 1 << i
			ranks = append(ranks, uint16(zipf.Next()))
		}
	}
	return mask, ranks
}

// A data-lane rank word carries the load's L1-D outcome in its top bit,
// which the data side's 15-bit ranks leave free (checkDataBlocks).
const (
	rankHit  = 1 << 15
	rankMask = rankHit - 1
)

// dataAddr is the address a load of the given rank word touches.
func dataAddr(rank uint16) isa.Addr {
	return dataBase + isa.Addr(rank&rankMask)*isa.BlockBytes
}

// maskWords is how many 16-bit words a block's load mask takes in the
// data lane.
func maskWords(numInstr int) int {
	if numInstr > 16 {
		return 2
	}
	return 1
}

// predictDir runs the direction predictor over one block in evaluate's
// call sequence — Predict then Update for a conditional, NoteUncond for
// calls, returns and jumps — and returns the conditional's prediction.
func predictDir(t *bpu.TAGE, bb isa.BasicBlock) bool {
	switch {
	case bb.Kind == isa.BranchCond:
		pred := t.Predict(bb.BranchPC())
		t.Update(bb.BranchPC(), bb.Taken)
		return pred
	case bb.Kind != isa.BranchNone:
		t.NoteUncond()
	}
	return false
}

// Tape is one hardware context's recorded stream: a walk lane of one
// workload.Ref per block and a data lane holding, per block, its load
// mask (one word, two past 16 instructions) followed by one Zipf rank
// per load. Each rank also carries the load's outcome in an L1-D that
// sees only this stream's loads — the core's own L1-D when the stream
// runs on a one-context core.
type Tape struct {
	coder *workload.RefCoder

	n    atomic.Uint64 // blocks recorded in every lane
	walk atomic.Pointer[[]*walkChunk]
	data atomic.Pointer[[]*dataChunk]

	mu      sync.Mutex // serializes recording; guards the fields below
	w       *workload.Walker
	gen     dataGen
	l1d     *cache.Cache
	ranks   []uint16
	dataOff int    // words used in the last data chunk
	words   uint64 // data-lane words used, chunk-tail padding included
}

// NewTape returns a tape recording the stream context k of a core built
// with cfg would walk on w: w's blocks and cfg's data side, salted for
// context k exactly as NewMultiContext salts it. coder is the RefCoder
// of w's program, and l1d an empty L1-D of the core's geometry, which
// the recording owns.
func NewTape(cfg Config, k int, w *workload.Walker, coder *workload.RefCoder, l1d *cache.Cache) *Tape {
	cfg.setDefaults()
	checkDataBlocks(&cfg)
	t := &Tape{
		coder:   coder,
		w:       w,
		gen:     newDataGen(&cfg, k),
		l1d:     l1d,
		dataOff: tapeChunkWords,
	}
	t.walk.Store(new([]*walkChunk))
	t.data.Store(new([]*dataChunk))
	return t
}

// Footprint reports the blocks recorded and the bytes their walk and
// data lanes occupy.
func (t *Tape) Footprint() (blocks, bytes uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n.Load()
	return n, 4*n + 2*t.words
}

// ensure records until at least need blocks exist and returns the
// recorded length.
func (t *Tape) ensure(need uint64) uint64 {
	if n := t.n.Load(); n >= need {
		return n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n.Load()
	if n >= need {
		return n
	}
	walk, data := *t.walk.Load(), *t.data.Load()
	grewWalk, grewData := false, false
	for end := need + tapeBatch; n < end; n++ {
		if n%tapeChunkBlocks == 0 {
			walk = append(walk, new(walkChunk))
			grewWalk = true
		}
		bb, ref := t.coder.Next(t.w)
		walk[n/tapeChunkBlocks][n%tapeChunkBlocks] = ref

		mask, ranks := t.gen.draw(bb.NumInstr, t.ranks[:0])
		t.ranks = ranks
		for j, r := range ranks {
			if blk := dataAddr(r).Block(); t.l1d.Access(blk) {
				ranks[j] |= rankHit
			} else {
				t.l1d.Insert(blk)
			}
		}
		// A record never straddles chunks. The reader cannot know the
		// load count before it reads the mask, so both sides test the
		// bound on the block size alone.
		mw := maskWords(bb.NumInstr)
		if t.dataOff+mw+bb.NumInstr > tapeChunkWords {
			t.words += uint64(tapeChunkWords - t.dataOff)
			data = append(data, new(dataChunk))
			grewData = true
			t.dataOff = 0
		}
		d := data[len(data)-1][t.dataOff:]
		d[0] = uint16(mask)
		if mw == 2 {
			d[1] = uint16(mask >> 16)
		}
		copy(d[mw:], ranks)
		t.dataOff += mw + len(ranks)
		t.words += uint64(mw + len(ranks))
	}
	if grewWalk {
		t.walk.Store(&walk)
	}
	if grewData {
		t.data.Store(&data)
	}
	t.n.Store(n)
	return n
}

// DirTape is the predictor lane of one stream on a one-context core:
// one bit per block, the prediction a fresh predictor of its variant
// makes for that block (0 for blocks without a conditional branch).
//
// The lane ends at the first lookup that would age the predictor's
// useful counters: decay is paced by a lookup count ResetStats clears,
// so from there on predictions depend on the core's phase schedule. A
// replaying core switches to its live predictor at that point, starting
// from this lane's predictor, which stops exactly there.
type DirTape struct {
	n    atomic.Uint64
	bits atomic.Pointer[[]*dirChunk]

	mu   sync.Mutex // serializes recording; guards the fields below
	tage *bpu.TAGE
	rd   tapeReader // the walk the lane is recorded over
	done bool       // the lane has ended
}

// NewDirTape returns the predictor lane over walk's stream for the
// default TAGE, or the CLZ-indexed variant when clz is set.
func NewDirTape(walk *Tape, clz bool) *DirTape {
	tage := bpu.NewTAGE()
	if clz {
		tage = bpu.NewCLZTAGE()
	}
	d := &DirTape{tage: tage}
	d.rd.start(walk)
	d.bits.Store(new([]*dirChunk))
	return d
}

// Footprint reports the blocks recorded and the bytes the lane occupies.
func (d *DirTape) Footprint() (blocks, bytes uint64) {
	n := d.n.Load()
	return n, (n + 7) / 8
}

// ensure records until at least need blocks exist or the lane ends, and
// returns the recorded length.
func (d *DirTape) ensure(need uint64) uint64 {
	if n := d.n.Load(); n >= need {
		return n
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.n.Load()
	bitsDir := *d.bits.Load()
	grew := false
	// Readers share the last word's bits below n, so the recorded length
	// stays a multiple of 64 — the words written here are still private
	// — until the lane ends, after which nothing is written.
	for end := (need + tapeBatch + 63) &^ 63; n < end && !d.done; n++ {
		bb := d.rd.next()
		if bb.Kind == isa.BranchCond && d.tage.DecaysNext() {
			d.done = true
			break
		}
		if n%tapeChunkBlocks == 0 {
			bitsDir = append(bitsDir, new(dirChunk))
			grew = true
		}
		if predictDir(d.tage, bb) {
			j := n % tapeChunkBlocks
			bitsDir[n/tapeChunkBlocks][j/64] |= 1 << (j % 64)
		}
	}
	if grew {
		d.bits.Store(&bitsDir)
	}
	d.n.Store(n)
	return n
}

// tapeReader is one context's cursor over a Tape: walk and data lanes
// advance independently (blocks are pulled at runahead and dispatched
// later), and the optional predictor lane advances per evaluated block.
type tapeReader struct {
	t *Tape

	avail uint64       // blocks known to be recorded
	wi    uint64       // index of peek
	wc    *walkChunk   // chunk holding wi
	peek  workload.Ref // the next block's record

	dci  int // data chunk index
	dc   *dataChunk
	doff int

	dir    *DirTape
	di     uint64
	davail uint64
	dbits  *dirChunk
}

func (r *tapeReader) start(t *Tape) {
	*r = tapeReader{t: t, dci: -1, doff: tapeChunkWords}
	r.peek = r.ref(0)
}

// ref returns walk record i, recording it first if needed. Records are
// read in order, so the chunk only changes on a chunk boundary.
func (r *tapeReader) ref(i uint64) workload.Ref {
	if i >= r.avail {
		r.avail = r.t.ensure(i + 1)
	}
	if i%tapeChunkBlocks == 0 {
		r.wc = (*r.t.walk.Load())[i/tapeChunkBlocks]
	}
	return r.wc[i%tapeChunkBlocks]
}

// next consumes and decodes the next block. The record after it is
// loaded first: its PC is a taken branch's target.
func (r *tapeReader) next() isa.BasicBlock {
	ref := r.peek
	r.wi++
	r.peek = r.ref(r.wi)
	return r.t.coder.Decode(ref, r.peek)
}

// loads returns the next dispatched block's load mask and load ranks.
// The ranks alias the tape and must not be modified.
func (r *tapeReader) loads(numInstr int) (uint32, []uint16) {
	mw := maskWords(numInstr)
	if r.doff+mw+numInstr > tapeChunkWords {
		r.dci++
		r.dc = (*r.t.data.Load())[r.dci]
		r.doff = 0
	}
	d := r.dc[r.doff:]
	mask := uint32(d[0])
	if mw == 2 {
		mask |= uint32(d[1]) << 16
	}
	k := bits.OnesCount32(mask)
	r.doff += mw + k
	return mask, d[mw : mw+k]
}

// predict returns the next evaluated block's recorded prediction, or
// false once the predictor lane has ended.
func (r *tapeReader) predict() (pred, ok bool) {
	i := r.di
	if i >= r.davail {
		if r.davail = r.dir.ensure(i + 1); i >= r.davail {
			return false, false
		}
	}
	r.di++
	if i%tapeChunkBlocks == 0 {
		r.dbits = (*r.dir.bits.Load())[i/tapeChunkBlocks]
	}
	j := i % tapeChunkBlocks
	return r.dbits[j/64]>>(j%64)&1 != 0, true
}
