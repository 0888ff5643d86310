//go:build race

package mod_test

func init() { raceEnabled = true }
