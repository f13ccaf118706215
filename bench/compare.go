package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the regression gate and the tests
// read.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// cmdCompare is the regression gate:
//
//	bench compare [-spec BENCHMARK.json] A.json... -- B.json...
//
// A is the parent's run files and B the change's. For every workload
// and end-to-end metric it prints each side's median and quartiles over
// its runs and B's change against the metric's bound. A metric is
// unresolved when A's interquartile spread is wider than its bound. The
// exit status is 1 on any regression beyond its bound, or any rise in
// the share of failed jobs.
func cmdCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var aPaths, bPaths []string
	side := &aPaths
	for _, arg := range fs.Args() {
		if arg == "--" {
			side = &bPaths
			continue
		}
		*side = append(*side, arg)
	}
	if len(aPaths) == 0 || len(bPaths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *specPath, err)
		return 2
	}
	a, err := readRunFiles(aPaths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRunFiles(bPaths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}

	status := 0
	fmt.Fprintf(w, "A: %d runs, B: %d runs; median [q1 q3]; delta is B's change, + is worse\n", len(a), len(b))
	fmt.Fprintf(w, "%-14s %-16s %-42s %-42s %8s %6s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, wl := range workloads {
		if !ranIn(a, wl.name) && !ranIn(b, wl.name) {
			continue
		}
		for _, m := range sp.EndToEnd {
			av, bv := values(a, wl.name, m.Name), values(b, wl.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing on one side\n", wl.name, m.Name)
				status = 1
				continue
			}
			qa, qb := quartiles(av), quartiles(bv)
			worse := (qb[1] - qa[1]) / qa[1]
			if m.Better == "higher" {
				worse = -worse
			}
			spread := (qa[2] - qa[0]) / qa[1]
			verdict := "ok"
			switch {
			case worse > m.Bound && (spread <= m.Bound || allWorse(av, bv, m.Better)):
				verdict = "REGRESSED"
				status = 1
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (A spread %.1f%%)", 100*spread)
			}
			fmt.Fprintf(w, "%-14s %-16s %-42s %-42s %+7.1f%% %5.0f%%  %s\n", wl.name, m.Name,
				fmtQ(qa, m.Unit), fmtQ(qb, m.Unit), 100*worse, 100*m.Bound, verdict)
		}
		fa, fb := failedFrac(a, wl.name), failedFrac(b, wl.name)
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSED"
			status = 1
		}
		fmt.Fprintf(w, "%-14s %-16s %-42.4f %-42.4f %8s %6s  %s\n", wl.name, "failed_frac", fa, fb, "", "any", verdict)
	}
	return status
}

func readRunFiles(paths []string) ([]runFile, error) {
	var out []runFile
	for _, p := range paths {
		f, err := readRunFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func ranIn(files []runFile, workload string) bool {
	for _, f := range files {
		if _, ok := f.Results[workload]; ok {
			return true
		}
	}
	return false
}

func values(files []runFile, workload, metric string) []float64 {
	var out []float64
	for _, f := range files {
		if m, ok := f.Results[workload].Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedFrac(files []runFile, workload string) float64 {
	var failed, attempted int
	for _, f := range files {
		r := f.Results[workload]
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// allWorse reports whether every B value is worse than every A value.
func allWorse(a, b []float64, better string) bool {
	amin, amax := minMax(a)
	bmin, bmax := minMax(b)
	if better == "higher" {
		return bmax < amin
	}
	return bmin > amax
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// quartiles returns the first quartile, median and third quartile by
// the default ("exclusive") method of Python's
// statistics.quantiles(values, n=4), so a spread reads the same here as
// in a Python notebook.
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

func fmtQ(q [3]float64, unit string) string {
	return fmt.Sprintf("%.4g %s [%.4g %.4g]", q[1], unit, q[0], q[2])
}
