package program_test

import (
	"testing"

	"shotgun/internal/program"
	"shotgun/internal/workload"
)

// TestProfileCalleeCandidatesMatchScan holds every function of the six
// workload programs to the reference per-function scan.
func TestProfileCalleeCandidatesMatchScan(t *testing.T) {
	for _, name := range workload.Names() {
		p := workload.MustGet(name)
		program.CheckCalleeCandidates(t, p.Gen, p.Seed)
	}
}
