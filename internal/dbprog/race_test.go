//go:build race

package dbprog_test

func init() { raceEnabled = true }
