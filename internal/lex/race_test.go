//go:build race

package lex_test

func init() { raceEnabled = true }
