//go:build race

package core_test

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
