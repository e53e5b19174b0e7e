// Package predecode models the predecoders Boomerang and Shotgun attach
// to the L1-I fill path: given a fetched or prefetched cache block, they
// extract the branch instructions it contains and produce BTB metadata
// (basic-block start, size, branch kind, target).
//
// In hardware the predecoder decodes raw bytes; in this simulator the
// Decoder is built from the synthetic program's static structure, which
// yields exactly the same information.
package predecode

import (
	"cmp"
	"fmt"
	"slices"

	"shotgun/internal/btb"
	"shotgun/internal/isa"
	"shotgun/internal/program"
)

// Branch is one predecoded branch: the BTB entry payload plus the basic
// block's start address (the BTB index).
type Branch struct {
	BlockPC isa.Addr
	Entry   btb.Entry
}

// Decoder maps cache-block addresses to the branches whose terminating
// branch instruction lies inside that block.
//
// The program lays its code out as a small number of dense images (the
// application image and the kernel image), so instead of a hash map the
// decoder indexes a dense per-image slice by block number: Decode sits
// on the L1-I fill path of every prefetch probe, and the map hash
// dominated its cost.
type Decoder struct {
	segs   []decodeSeg
	blocks int
}

// decodeSeg covers one contiguous run of code blocks; branches[i] holds
// the branches of block number base+i.
type decodeSeg struct {
	base     uint64 // first block number of the run
	branches [][]Branch
}

// segGapBlocks is the block-number gap beyond which NewDecoder starts a
// new segment rather than padding the current one (images are packed;
// only the inter-image void exceeds this).
const segGapBlocks = 1 << 16

// NewDecoder indexes every static branch in the program by the cache
// block containing its branch instruction. It visits the functions in
// address order and appends each branch to one backing slice, so a cache
// block's branches (in block order) form one contiguous run of it. That
// needs every cache block to hold code of at most one function, which
// the program's block-aligned layout guarantees; NewDecoder panics if
// the program breaks it.
func NewDecoder(prog *program.Program) *Decoder {
	funcs := slices.Clone(prog.Funcs)
	slices.SortFunc(funcs, func(a, b *program.Function) int { return cmp.Compare(a.Entry(), b.Entry()) })

	// blockRun is one cache block's branches: all[lo:hi].
	type blockRun struct {
		num    uint64
		lo, hi int
	}
	all := make([]Branch, 0, prog.StaticBranches())
	var runs []blockRun
	for _, f := range funcs {
		first := len(runs) // f's runs start here
		for bi := range f.Blocks {
			sb := &f.Blocks[bi]
			if sb.Kind == isa.BranchNone {
				continue
			}
			num := sb.PC.Add(sb.NumInstr - 1).BlockIndex()
			if n := len(runs); n == first || runs[n-1].num != num {
				if n > 0 && runs[n-1].num >= num {
					panic(fmt.Sprintf("predecode: function %d shares cache block %v with another function",
						f.ID, isa.Addr(runs[n-1].num*isa.BlockBytes)))
				}
				runs = append(runs, blockRun{num: num, lo: len(all)})
			}
			entry := btb.Entry{NumInstr: sb.NumInstr, Kind: sb.Kind}
			switch sb.Kind {
			case isa.BranchCond, isa.BranchJump:
				entry.Target = f.Blocks[sb.TargetIdx].PC
			case isa.BranchCall, isa.BranchTrap:
				entry.Target = prog.Func(sb.Callee).Entry()
			}
			// Returns read targets from the RAS; no static target.
			all = append(all, Branch{BlockPC: sb.PC, Entry: entry})
			runs[len(runs)-1].hi = len(all)
		}
	}

	d := &Decoder{blocks: len(runs)}
	for i := 0; i < len(runs); {
		j := i + 1
		for j < len(runs) && runs[j].num-runs[j-1].num < segGapBlocks {
			j++
		}
		seg := decodeSeg{
			base:     runs[i].num,
			branches: make([][]Branch, runs[j-1].num-runs[i].num+1),
		}
		for _, r := range runs[i:j] {
			// Capped, so an append by a caller cannot reach the next block.
			seg.branches[r.num-seg.base] = all[r.lo:r.hi:r.hi]
		}
		d.segs = append(d.segs, seg)
		i = j
	}
	return d
}

// Decode returns the branches whose branch instruction lies in the cache
// block containing addr. The returned slice is shared; callers must not
// mutate it.
func (d *Decoder) Decode(addr isa.Addr) []Branch {
	bi := addr.BlockIndex()
	for i := range d.segs {
		// Unsigned wrap makes a below-base block number fail the bound.
		if off := bi - d.segs[i].base; off < uint64(len(d.segs[i].branches)) {
			return d.segs[i].branches[off]
		}
	}
	return nil
}

// DecodeFor returns the predecoded entry for the basic block starting at
// blockPC, searching the cache block that holds its terminating branch.
// Used by reactive BTB fills, which know which basic block missed.
func (d *Decoder) DecodeFor(blockPC isa.Addr, branchPC isa.Addr) (Branch, bool) {
	for _, br := range d.Decode(branchPC) {
		if br.BlockPC == blockPC {
			return br, true
		}
	}
	return Branch{}, false
}

// Blocks returns the number of distinct cache blocks with branches.
func (d *Decoder) Blocks() int { return d.blocks }
