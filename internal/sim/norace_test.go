//go:build !race

package sim

// raceEnabled is set in -race builds; see race_test.go.
const raceEnabled = false
