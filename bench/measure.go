package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// jobTimeout is how long one job may take before it counts as failed.
const jobTimeout = 120 * time.Second

// jobFunc runs job i of a workload and returns its latency, measured
// from the first byte sent to the last byte of the report received,
// before the report is checked. A non-nil error, including a wrong
// report, makes the job a failure.
type jobFunc func(ctx context.Context, i int) (time.Duration, error)

// loopResult is what a closed loop observed.
type loopResult struct {
	lat      []time.Duration // successful jobs, in completion order
	failed   int
	firstErr error
	wall     time.Duration
}

// closedLoop runs jobs first..first+n-1 from the given number of client
// goroutines. Each client sends its next job only after its previous
// one returned, as progconvctl submit -wait and CI callers do.
func closedLoop(ctx context.Context, clients, first, n int, job jobFunc) loopResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  loopResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				jctx, cancel := context.WithTimeout(ctx, jobTimeout)
				d, err := job(jctx, first+i)
				cancel()
				mu.Lock()
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("job %d: %w", first+i, err)
					}
				} else {
					res.lat = append(res.lat, d)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu        time.Duration // user + system
	allocs     uint64        // heap objects allocated
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
}

func (u usage) sub(v usage) usage {
	return usage{u.cpu - v.cpu, u.allocs - v.allocs, u.allocBytes - v.allocBytes,
		u.gcCPU - v.gcCPU, u.totalCPU - v.totalCPU}
}

func (u usage) add(v usage) usage {
	return usage{u.cpu + v.cpu, u.allocs + v.allocs, u.allocBytes + v.allocBytes,
		u.gcCPU + v.gcCPU, u.totalCPU + v.totalCPU}
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readUsage reads getrusage and the runtime's counters. Neither stops
// the world, so reading them does not perturb the run.
func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u.allocs = s[0].Value.Uint64()
	u.allocBytes = s[1].Value.Uint64()
	u.gcCPU = s[2].Value.Float64()
	u.totalCPU = s[3].Value.Float64()
	return u
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of sorted values, interpolating
// linearly between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// millis converts durations to float milliseconds, sorted.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// metric is one named measurement as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the JSON object the benchmark prints as
// the last line of its output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// table collects a run's metrics, in order, with their sample counts
// for the human-readable lines printed above the result.
type table struct {
	rows []row
}

type row struct {
	name    string
	m       metric
	samples int
	extra   bool // printed for people, left out of the result line
}

func (t *table) add(name, unit string, v float64, samples int) {
	t.rows = append(t.rows, row{name: name, m: metric{v, unit}, samples: samples})
}

// note adds a row that is printed but not part of the result line.
func (t *table) note(name, unit string, v float64, samples int) {
	t.rows = append(t.rows, row{name: name, m: metric{v, unit}, samples: samples, extra: true})
}

func (t *table) metrics() map[string]metric {
	out := map[string]metric{}
	for _, r := range t.rows {
		if !r.extra {
			out[r.name] = r.m
		}
	}
	return out
}

// print writes one line per row: name, value, unit and sample count.
func (t *table) print(workload string) {
	for _, r := range t.rows {
		fmt.Printf("%-14s %-40s %14.4f %-6s n=%d\n", workload, r.name, r.m.Value, r.m.Unit, r.samples)
	}
}
