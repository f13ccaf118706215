package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestConvertTimesStagesWithoutStats: the CLI times every stage
// whatever flags are set, so -metrics-out and -events carry real stage
// durations without -stats or -trace.
func TestConvertTimesStagesWithoutStats(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "run.prom")
	events := filepath.Join(dir, "run.jsonl")
	const delay = 3 * time.Millisecond
	fixtures := filepath.Join("..", "..", "examples", "company")
	if err := cmdConvert([]string{
		"-inject", "delay=" + delay.String() + "@*/analyze",
		"-metrics-out", metrics, "-events", events,
		filepath.Join(fixtures, "company-v1.ddl"),
		filepath.Join(fixtures, "company-v2.ddl"),
		filepath.Join(fixtures, "roster.prog"),
	}); err != nil {
		t.Fatal(err)
	}

	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	const sumLine = `progconv_stage_latency_seconds_sum{stage="analyze"} `
	var sum float64
	found := false
	for _, line := range strings.Split(string(prom), "\n") {
		if v, ok := strings.CutPrefix(line, sumLine); ok {
			if sum, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found || sum < delay.Seconds() {
		t.Errorf("analyze latency sum = %v (found %v), want >= %v", sum, found, delay.Seconds())
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ends := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Kind  string `json:"kind"`
			Stage string `json:"stage"`
			Dur   int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "stage-end" && ev.Stage == "analyze" {
			ends++
			if ev.Dur < delay.Nanoseconds() {
				t.Errorf("analyze stage-end dur_ns = %d, want >= %d", ev.Dur, delay.Nanoseconds())
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if ends != 1 {
		t.Errorf("analyze stage-end events = %d, want 1", ends)
	}
}
