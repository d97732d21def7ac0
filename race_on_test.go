//go:build race

package skipwebs

// raceEnabled reports that the race detector is on. It makes sync.Pool
// drop a share of its Puts on purpose, so allocation ceilings over pooled
// paths hold only without it.
const raceEnabled = true
