//go:build race

package distributed

func init() { raceEnabled = true }
