// Package bpu implements the branch prediction unit's direction
// predictor — a TAGE variant (Seznec & Michaud) sized to the paper's 8KB
// storage budget — and the return address stack, including Shotgun's
// extension that records the calling basic block alongside the return
// address (Section 4.2.3).
package bpu

import (
	"math/bits"

	"shotgun/internal/isa"
)

// TAGE is a tagged-geometric-history direction predictor.
//
// Storage accounting (8KB budget, Table 3):
//   - bimodal base: 8K entries x 2 bits                 = 2.00 KB
//   - 4 tagged tables: 1K entries x (8 tag + 3 ctr + 2 u) = 6.50 KB
//
// total ~8.5KB, matching the paper's 8KB budget to within rounding.
type TAGE struct {
	base []int8 // 2-bit saturating counters, biased at >=2 taken

	tables  []tagedTable
	histLen []int

	ghist uint64 // global direction history, youngest bit at LSB

	// clz selects the CLZ-rotated history folding (NewCLZTAGE). It only
	// gates how the folded terms are computed; tables, update rules and
	// storage are identical to the default variant.
	clz bool

	// Folded-history cache: the per-table fold terms of index() and
	// tag() depend only on ghist, which advances once per retired
	// branch, while lookups recompute them several times per branch.
	// foldsValid is cleared whenever ghist changes and the folds are
	// rebuilt lazily on the next lookup.
	foldsValid bool
	foldIdx    [numTables]uint64
	foldTag    [numTables]uint64

	// Lookups / Mispredicts count predictions and wrong predictions.
	Lookups     uint64
	Mispredicts uint64
}

type tagedTable struct {
	tags []uint16
	ctr  []int8 // 3-bit signed counter: >=0 taken
	use  []uint8
}

const (
	baseBits   = 13 // 8K-entry bimodal
	tableBits  = 10 // 1K entries per tagged table
	numTables  = 4
	tagBits    = 8
	maxUseful  = 3
	resetEvery = 1 << 18
)

// NewTAGE builds the predictor with geometric history lengths {6,16,34,62}.
func NewTAGE() *TAGE {
	t := &TAGE{
		base:    make([]int8, 1<<baseBits),
		histLen: []int{6, 16, 34, 62},
	}
	for i := range t.base {
		t.base[i] = 1 // weakly not-taken: most static branches are rarely taken
	}
	t.tables = make([]tagedTable, numTables)
	for i := range t.tables {
		t.tables[i] = tagedTable{
			tags: make([]uint16, 1<<tableBits),
			ctr:  make([]int8, 1<<tableBits),
			use:  make([]uint8, 1<<tableBits),
		}
	}
	return t
}

// NewCLZTAGE builds the CLZ-indexing variant: the same tables, budget,
// and update rules as NewTAGE, but the per-table history folds rotate
// each successive chunk by the leading-zero count of the running fold
// (clzFold) instead of XOR-folding chunks in place. Sparse histories —
// long runs of identical outcomes, common in loop-heavy server code —
// then spread across the index space instead of collapsing onto a few
// low bits. Swept as the sim.Config BPU axis.
func NewCLZTAGE() *TAGE {
	t := NewTAGE()
	t.clz = true
	return t
}

func fold(h uint64, lenBits, outBits int) uint64 {
	h &= (1 << uint(lenBits)) - 1
	var f uint64
	for h != 0 {
		f ^= h & ((1 << uint(outBits)) - 1)
		h >>= uint(outBits)
	}
	return f
}

// clzFold compresses the low lenBits of h into outBits. Where fold XORs
// successive outBits-wide chunks in place, clzFold rotates each chunk
// by the leading-zero count of the running fold before XORing it in, so
// equal chunks landed at different register states hash apart. The
// result is always below 1<<outBits (FuzzCLZIndex pins this).
func clzFold(h uint64, lenBits, outBits int) uint64 {
	h &= (1 << uint(lenBits)) - 1
	mask := uint64(1)<<uint(outBits) - 1
	var f uint64
	for h != 0 {
		chunk := h & mask
		rot := bits.LeadingZeros64(f|1) % outBits
		f ^= (chunk<<uint(rot) | chunk>>uint(outBits-rot)) & mask
		h >>= uint(outBits)
	}
	return f
}

func mix(pc isa.Addr) uint64 {
	x := uint64(pc) >> 2
	x ^= x >> 13
	x *= 0x9e3779b97f4a7c15
	return x ^ (x >> 29)
}

// folds returns the cached per-table history folds, rebuilding them if
// ghist advanced since the last lookup.
func (t *TAGE) folds() {
	if t.foldsValid {
		return
	}
	for i := 0; i < numTables; i++ {
		if t.clz {
			t.foldIdx[i] = clzFold(t.ghist, t.histLen[i], tableBits)
			t.foldTag[i] = clzFold(t.ghist, t.histLen[i], tagBits)
		} else {
			t.foldIdx[i] = fold(t.ghist, t.histLen[i], tableBits) ^ (fold(t.ghist, t.histLen[i], tableBits-1) << 1)
			t.foldTag[i] = fold(t.ghist, t.histLen[i], tagBits)
		}
	}
	t.foldsValid = true
}

func (t *TAGE) index(table int, pc isa.Addr) int {
	t.folds()
	return int((mix(pc) ^ t.foldIdx[table]) & ((1 << tableBits) - 1))
}

func (t *TAGE) tag(table int, pc isa.Addr) uint16 {
	t.folds()
	h := mix(pc)>>7 ^ t.foldTag[table]
	tag := uint16(h&((1<<tagBits)-1)) | 1 // never zero: zero means empty
	return tag
}

// lookup finds the longest-history table whose entry matches pc,
// returning its table number and index, or table -1 when only the
// bimodal base applies; pred is the resulting direction prediction.
// It hoists the pc hash and the folded history out of the per-table
// probes — index() and tag() applied across all tables, exactly.
func (t *TAGE) lookup(pc isa.Addr) (table, idx int, pred bool) {
	t.folds()
	mixed := mix(pc)
	for i := numTables - 1; i >= 0; i-- {
		idx := int((mixed ^ t.foldIdx[i]) & ((1 << tableBits) - 1))
		tag := uint16((mixed>>7^t.foldTag[i])&((1<<tagBits)-1)) | 1
		if t.tables[i].tags[idx] == tag {
			return i, idx, t.tables[i].ctr[idx] >= 0
		}
	}
	return -1, 0, t.base[int(mixed&((1<<baseBits)-1))] >= 2
}

func (t *TAGE) baseIndex(pc isa.Addr) int {
	return int(mix(pc) & ((1 << baseBits) - 1))
}

// Predict returns the predicted direction for the conditional branch at pc.
func (t *TAGE) Predict(pc isa.Addr) bool {
	t.Lookups++
	_, _, pred := t.lookup(pc)
	return pred
}

// Update trains the predictor with the actual outcome and advances the
// global history. Call once per retired conditional branch.
func (t *TAGE) Update(pc isa.Addr, taken bool) {
	// One scan yields both the prediction and the provider (the
	// longest matching table).
	provider, provIdx, predicted := t.lookup(pc)
	if predicted != taken {
		t.Mispredicts++
	}

	if provider >= 0 {
		tb := &t.tables[provider]
		if taken {
			if tb.ctr[provIdx] < 3 {
				tb.ctr[provIdx]++
			}
		} else {
			if tb.ctr[provIdx] > -4 {
				tb.ctr[provIdx]--
			}
		}
		if (tb.ctr[provIdx] >= 0) == taken && tb.use[provIdx] < maxUseful {
			tb.use[provIdx]++
		}
	} else {
		bi := t.baseIndex(pc)
		if taken {
			if t.base[bi] < 3 {
				t.base[bi]++
			}
		} else {
			if t.base[bi] > 0 {
				t.base[bi]--
			}
		}
	}

	// On misprediction, allocate into a longer-history table.
	if predicted != taken && provider < numTables-1 {
		for i := provider + 1; i < numTables; i++ {
			idx := t.index(i, pc)
			if t.tables[i].use[idx] == 0 {
				t.tables[i].tags[idx] = t.tag(i, pc)
				if taken {
					t.tables[i].ctr[idx] = 0
				} else {
					t.tables[i].ctr[idx] = -1
				}
				break
			}
			// Decay usefulness so allocations eventually succeed.
			t.tables[i].use[idx]--
		}
	}

	// Periodic useful-counter decay (gracefully ages stale entries).
	if t.Lookups%resetEvery == 0 {
		for i := range t.tables {
			for j := range t.tables[i].use {
				t.tables[i].use[j] >>= 1
			}
		}
	}

	t.ghist = t.ghist<<1 | b2u(taken)
	t.foldsValid = false
}

// NoteUncond advances history for unconditional transfers so the global
// history reflects path information (they are always taken).
func (t *TAGE) NoteUncond() {
	t.ghist = t.ghist<<1 | 1
	t.foldsValid = false
}

// DecaysNext reports whether the next Predict/Update pair ages every
// useful counter. Decay is paced by Lookups, which ResetStats clears, so
// it is the one point where predictions depend on when stats were last
// reset and not on the branch stream alone.
func (t *TAGE) DecaysNext() bool { return (t.Lookups+1)%resetEvery == 0 }

// CopyFrom makes t predict exactly as src would from here on: tables,
// global history and variant. t keeps its own Lookups and Mispredicts.
func (t *TAGE) CopyFrom(src *TAGE) {
	copy(t.base, src.base)
	for i := range t.tables {
		copy(t.tables[i].tags, src.tables[i].tags)
		copy(t.tables[i].ctr, src.tables[i].ctr)
		copy(t.tables[i].use, src.tables[i].use)
	}
	t.ghist = src.ghist
	t.clz = src.clz
	t.foldsValid = src.foldsValid
	t.foldIdx = src.foldIdx
	t.foldTag = src.foldTag
}

// MispredictRate returns the fraction of Update calls that disagreed with
// the prediction.
func (t *TAGE) MispredictRate() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.Mispredicts) / float64(t.Lookups)
}

// ResetStats clears counters without clearing predictor state.
func (t *TAGE) ResetStats() {
	t.Lookups = 0
	t.Mispredicts = 0
}

// StorageBits returns the modeled predictor budget in bits.
func (t *TAGE) StorageBits() int {
	return (1<<baseBits)*2 + numTables*(1<<tableBits)*(tagBits+3+2)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
