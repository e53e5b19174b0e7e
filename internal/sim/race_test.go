//go:build race

package sim

// raceEnabled is set in -race builds, where TestTapesMatchLive runs only
// its concurrent pass and TestEventKernelMatchesLockstep skips its
// 65-core case: they check nothing the detector could add to, at ten
// times the cost.
const raceEnabled = true
