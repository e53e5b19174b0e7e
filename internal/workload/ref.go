package workload

import (
	"shotgun/internal/isa"
	"shotgun/internal/program"
)

// Ref is one step of a recorded walk in 32 bits instead of a 40-byte
// BasicBlock: the emitted static block's position in its program's flat
// block table, and a conditional branch's outcome in the low bit.
//
// The rest of the block is static except its target, and a walk is
// control-flow consistent — every block starts where the previous one
// went — so a taken branch's target is the PC of the step after it.
type Ref uint32

// RefCoder packs the walk steps of one program into Refs and rebuilds
// blocks from them. It holds the program's flat block table: PC, size
// and kind of every static block in one word, functions back to back.
type RefCoder struct {
	blocks []uint64
	first  []uint32 // first[f]: position of function f's entry block
}

const (
	refPCBits   = isa.VABits
	refSizeBits = 8
)

// NewRefCoder builds the coder for prog: one word per static block. It
// is immutable once built, so any number of tapes may share it.
func NewRefCoder(prog *program.Program) *RefCoder {
	total := 0
	for _, f := range prog.Funcs {
		total += len(f.Blocks)
	}
	c := &RefCoder{blocks: make([]uint64, 0, total), first: make([]uint32, len(prog.Funcs))}
	for i, f := range prog.Funcs {
		c.first[i] = uint32(len(c.blocks))
		for _, b := range f.Blocks {
			c.blocks = append(c.blocks, uint64(b.PC)|uint64(b.NumInstr)<<refPCBits|uint64(b.Kind)<<(refPCBits+refSizeBits))
		}
	}
	return c
}

// Next advances w by one block, exactly like w.Next, and also returns
// the step as a Ref. w must walk the coder's program.
func (c *RefCoder) Next(w *Walker) (isa.BasicBlock, Ref) {
	ref := Ref((c.first[w.cur.fn.ID] + uint32(w.cur.idx)) << 1)
	bb := w.Next()
	if bb.Kind == isa.BranchCond && bb.Taken {
		ref |= 1
	}
	return bb, ref
}

// Decode rebuilds the block ref was recorded from; next is the step
// recorded after it.
func (c *RefCoder) Decode(ref, next Ref) isa.BasicBlock {
	e := c.blocks[ref>>1]
	bb := isa.BasicBlock{
		PC:       isa.Addr(e & (1<<refPCBits - 1)),
		NumInstr: int(e >> refPCBits & (1<<refSizeBits - 1)),
		Kind:     isa.BranchKind(e >> (refPCBits + refSizeBits)),
	}
	if bb.Kind != isa.BranchNone && (bb.Kind != isa.BranchCond || ref&1 != 0) {
		bb.Taken = true
		bb.Target = isa.Addr(c.blocks[next>>1] & (1<<refPCBits - 1))
	}
	return bb
}
