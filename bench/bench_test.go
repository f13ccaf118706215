package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// tinySeconds is short enough that each end-to-end run measures a single
// round after its warm-up, and each traced pass runs its minimum of ten
// ops.
const tinySeconds = 0.3

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no metrics")
	}
	return sp
}

// TestWorkloads runs every workload end to end and traced at tiny sizes:
// no job may fail, and every metric BENCHMARK.json names must come out
// with its unit.
func TestWorkloads(t *testing.T) {
	sp := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, _, err := runE2E(context.Background(), w, 1, tinySeconds)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("end to end: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(sp.EndToEnd) {
				t.Errorf("end to end: %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(sp.EndToEnd))
			}
			for _, m := range sp.EndToEnd {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("end to end: %s missing", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("end to end: %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				case got.Value <= 0:
					t.Errorf("end to end: %s = %v, want > 0", m.Name, got.Value)
				}
			}

			res, _, err = runTrace(context.Background(), w, 1, tinySeconds, filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(sp.PerLayer) {
				t.Errorf("traced: %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(sp.PerLayer))
			}
			for _, m := range sp.PerLayer {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("traced: %s missing", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("traced: %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				}
			}
			// The spans must explain most of the facade's run. On the
			// corpus's small programs the supervisor's own per-program
			// work (pool hand-off, stage runner) is 15-20% of a 2 ms
			// uncached run: full-size passes read 0.79-0.87, but a
			// median of ten ops swings by 0.1 either way, so the floor
			// only catches spans that stopped covering core's calls.
			if c := res.Metrics["core.coverage"].Value; c < 0.6 {
				t.Errorf("core.coverage = %.3f, want >= 0.6", c)
			}
		})
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4): quantiles(range(1, 11)) and
// quantiles([1, 2, 3, 4]).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareGate checks the gate's verdicts: identical sides pass, a
// throughput drop beyond its bound fails, and so does a rise in failed
// jobs.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, jobsPerS float64, failed int) string {
		t.Helper()
		f := runFile{Seed: 1, Results: map[string]result{"migrate": {
			Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"jobs_per_s": {jobsPerS, "1/s"}},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(`{"end_to_end": [
		{"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a := []string{write("a1", 10, 0), write("a2", 10.1, 0), write("a3", 9.9, 0)}
	for _, c := range []struct {
		name string
		b    []string
		want int
	}{
		{"same", []string{write("b1", 10, 0), write("b2", 10.05, 0), write("b3", 9.95, 0)}, 0},
		{"slower", []string{write("c1", 8, 0), write("c2", 8.1, 0), write("c3", 7.9, 0)}, 1},
		{"failing", []string{write("d1", 10, 1), write("d2", 10, 0), write("d3", 10, 0)}, 1},
	} {
		args := append(append([]string{"-spec", specPath}, a...), "--")
		if got := cmdCompare(append(args, c.b...), io.Discard); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
