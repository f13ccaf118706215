//go:build race

package fingerprint

func init() { raceEnabled = true }
