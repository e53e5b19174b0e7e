package predecode_test

import (
	"slices"
	"testing"

	"shotgun/internal/btb"
	"shotgun/internal/isa"
	"shotgun/internal/predecode"
	"shotgun/internal/program"
	"shotgun/internal/workload"
)

// mapDecoder is the reference index: every branch appended to a map
// entry for its cache block, visiting functions in ID order and blocks
// in order.
func mapDecoder(prog *program.Program) map[isa.Addr][]predecode.Branch {
	byBlock := make(map[isa.Addr][]predecode.Branch)
	for _, f := range prog.Funcs {
		for _, sb := range f.Blocks {
			if sb.Kind == isa.BranchNone {
				continue
			}
			entry := btb.Entry{NumInstr: sb.NumInstr, Kind: sb.Kind}
			switch sb.Kind {
			case isa.BranchCond, isa.BranchJump:
				entry.Target = f.Blocks[sb.TargetIdx].PC
			case isa.BranchCall, isa.BranchTrap:
				entry.Target = prog.Func(sb.Callee).Entry()
			}
			cb := sb.PC.Add(sb.NumInstr - 1).Block()
			byBlock[cb] = append(byBlock[cb], predecode.Branch{BlockPC: sb.PC, Entry: entry})
		}
	}
	return byBlock
}

// TestProfileDecodeMatchesMap checks Decode for every cache block of the
// six workload programs, and the block just past each function, against
// the map-built reference.
func TestProfileDecodeMatchesMap(t *testing.T) {
	for _, name := range workload.Names() {
		prog := workload.MustGet(name).Program()
		d := predecode.NewDecoder(prog)
		want := mapDecoder(prog)
		if d.Blocks() != len(want) {
			t.Fatalf("%s: Blocks() = %d, reference has %d", name, d.Blocks(), len(want))
		}
		for _, f := range prog.Funcs {
			for a := f.Entry().Block(); a <= f.End(); a += isa.BlockBytes {
				if got := d.Decode(a); !slices.Equal(got, want[a]) {
					t.Fatalf("%s: block %v decodes to %+v, reference %+v", name, a, got, want[a])
				}
			}
		}
	}
}
