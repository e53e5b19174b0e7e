//go:build race

package sim

// raceEnabled is set in -race builds, where TestTapesMatchLive runs only
// its concurrent pass: the serial passes check nothing the detector
// could add to, at ten times the cost.
const raceEnabled = true
