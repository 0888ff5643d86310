//go:build race

package sindex

// The race detector makes sync.Pool drop items at random, so the pooled
// allocation ceilings do not hold under it.
func init() { raceEnabled = true }
