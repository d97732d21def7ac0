//go:build !race

package skipwebs

const raceEnabled = false
