//go:build !race

package experiments

// raceEnabled reports whether the race detector is on; the slow multi-seed
// claims test skips under it.
const raceEnabled = false
