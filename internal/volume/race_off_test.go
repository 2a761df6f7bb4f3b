//go:build !race

package volume

const raceEnabled = false
