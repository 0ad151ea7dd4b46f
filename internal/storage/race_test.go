//go:build race

package storage

// raceEnabled gates tests whose expectations the race runtime breaks
// (sync.Pool intentionally drops items under -race, so allocation
// counts on pooled paths are meaningless there).
const raceEnabled = true
