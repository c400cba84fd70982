//go:build race

package invindex

// raceEnabled reports whether the test binary runs under the race
// detector, whose sync.Pool drops a random share of Puts on purpose —
// allocation counts through a pool measure the race runtime there.
const raceEnabled = true
