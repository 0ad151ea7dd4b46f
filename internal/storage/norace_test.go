//go:build !race

package storage

// raceEnabled gates tests whose expectations the race runtime breaks.
const raceEnabled = false
