//go:build race

package dist

// raceEnabled: under the race detector sync.Pool drops Puts at random, so
// allocation counts of pooled paths mean nothing.
const raceEnabled = true
