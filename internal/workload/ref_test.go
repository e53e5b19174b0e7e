package workload

import "testing"

// TestRefRoundTrip records every profile's walk as Refs and decodes it
// back: each block must equal what a twin walker emits, which also pins
// the control-flow consistency Decode relies on for taken targets.
func TestRefRoundTrip(t *testing.T) {
	const steps = 50_000
	for _, p := range Profiles() {
		c := NewRefCoder(p.Program())
		rec, twin := p.NewWalker(), p.NewWalker()
		refs := make([]Ref, steps+1)
		for i := range refs {
			_, refs[i] = c.Next(rec)
		}
		for i := 0; i < steps; i++ {
			if got, want := c.Decode(refs[i], refs[i+1]), twin.Next(); got != want {
				t.Fatalf("%s step %d: decoded %+v, walker emitted %+v", p.Name, i, got, want)
			}
		}
	}
}
