package workload

import (
	"testing"

	"shotgun/internal/predecode"
	"shotgun/internal/program"
)

// BenchmarkSetup measures what a process pays for a workload before its
// first simulation: generating the profile's program and building its
// predecode image, at the profile's real shape (BenchmarkGenerate's
// 920-function program is far smaller than Oracle's 6,300).
func BenchmarkSetup(b *testing.B) {
	for _, name := range Names() {
		p := MustGet(name)
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				predecode.NewDecoder(program.MustGenerate(p.Gen, p.Seed))
			}
		})
	}
}
