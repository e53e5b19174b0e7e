package predecode

import (
	"testing"

	"shotgun/internal/isa"
	"shotgun/internal/program"
)

func testProgram(t testing.TB) *program.Program {
	t.Helper()
	return program.MustGenerate(program.GenParams{NumAppFuncs: 80, NumKernelFuncs: 20}, 42)
}

func TestEveryBranchDecodable(t *testing.T) {
	prog := testProgram(t)
	d := NewDecoder(prog)
	for _, f := range prog.Funcs {
		for _, sb := range f.Blocks {
			if sb.Kind == isa.BranchNone {
				continue
			}
			branchPC := sb.PC.Add(sb.NumInstr - 1)
			br, ok := d.DecodeFor(sb.PC, branchPC)
			if !ok {
				t.Fatalf("branch at %v (block %v) not decodable", branchPC, sb.PC)
			}
			if br.Entry.Kind != sb.Kind || br.Entry.NumInstr != sb.NumInstr {
				t.Fatalf("decoded %+v, want kind %v size %d", br.Entry, sb.Kind, sb.NumInstr)
			}
		}
	}
}

func TestTargetsResolved(t *testing.T) {
	prog := testProgram(t)
	d := NewDecoder(prog)
	for _, f := range prog.Funcs {
		for _, sb := range f.Blocks {
			branchPC := sb.PC.Add(sb.NumInstr - 1)
			br, ok := d.DecodeFor(sb.PC, branchPC)
			if !ok {
				continue
			}
			switch sb.Kind {
			case isa.BranchCond, isa.BranchJump:
				want := f.Blocks[sb.TargetIdx].PC
				if br.Entry.Target != want {
					t.Fatalf("local branch target %v, want %v", br.Entry.Target, want)
				}
			case isa.BranchCall, isa.BranchTrap:
				want := prog.Func(sb.Callee).Entry()
				if br.Entry.Target != want {
					t.Fatalf("call target %v, want %v", br.Entry.Target, want)
				}
			case isa.BranchRet, isa.BranchTrapRet:
				if br.Entry.Target != 0 {
					t.Fatalf("return must have no static target, got %v", br.Entry.Target)
				}
			}
		}
	}
}

func TestDecodeGroupsByCacheBlock(t *testing.T) {
	prog := testProgram(t)
	d := NewDecoder(prog)
	if d.Blocks() == 0 {
		t.Fatal("no blocks indexed")
	}
	// Every branch returned for a block must actually live in that block.
	checked := 0
	for _, f := range prog.Funcs {
		for _, sb := range f.Blocks {
			if sb.Kind == isa.BranchNone {
				continue
			}
			cb := sb.PC.Add(sb.NumInstr - 1).Block()
			for _, br := range d.Decode(cb) {
				bpc := br.BlockPC.Add(br.Entry.NumInstr - 1)
				if bpc.Block() != cb {
					t.Fatalf("branch %v listed under block %v", bpc, cb)
				}
				checked++
			}
			if checked > 2000 {
				return
			}
		}
	}
}

func TestDecodeUnknownBlockEmpty(t *testing.T) {
	d := NewDecoder(testProgram(t))
	if got := d.Decode(0xdead0000); got != nil {
		t.Fatalf("unknown block decoded to %v", got)
	}
}

func BenchmarkDecode(b *testing.B) {
	prog := testProgram(b)
	d := NewDecoder(prog)
	entry := prog.Funcs[0].Entry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(entry + isa.Addr((i%64)*isa.BlockBytes))
	}
}

func TestDecodeSlicesCapped(t *testing.T) {
	prog := testProgram(t)
	d := NewDecoder(prog)
	for _, f := range prog.Funcs {
		for a := f.Entry().Block(); a < f.End(); a += isa.BlockBytes {
			if brs := d.Decode(a); cap(brs) != len(brs) {
				t.Fatalf("block %v: cap %d > len %d; an append would overwrite the next block", a, cap(brs), len(brs))
			}
		}
	}
}

// TestNewDecoderRejectsSharedBlock builds two functions whose returns
// share one cache block, which block-aligned layout never produces.
func TestNewDecoderRejectsSharedBlock(t *testing.T) {
	ret := func(id program.FuncID, pc isa.Addr) *program.Function {
		return &program.Function{ID: id, Blocks: []program.StaticBlock{
			{PC: pc, NumInstr: 2, Kind: isa.BranchRet, Callee: program.NoFunc},
		}}
	}
	prog := &program.Program{Funcs: []*program.Function{ret(0, 0x1000), ret(1, 0x1000+2*isa.InstrBytes)}}
	defer func() {
		if recover() == nil {
			t.Fatal("NewDecoder accepted two functions in one cache block")
		}
	}()
	NewDecoder(prog)
}
