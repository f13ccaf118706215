// Command bench is progconv's benchmark. It drives conversion jobs
// through the system's real surfaces — the serve daemon over loopback
// HTTP, the dispatch coordinator over two serve workers, and the
// progconv library facade — checks every report, and prints end-to-end
// metrics, or, in its traced pass, per-layer metrics.
//
// Build and run it from the repository root with bench/run.sh:
//
//	bash bench/run.sh --workload convert-cold --seed 1 --seconds 28 --trace 0
//	bash bench/run.sh run -seed 1 -out res.json
//	bash bench/run.sh trace -seed 1 -out trace.json
//	bash bench/run.sh compare a1.json a2.json a3.json -- b1.json b2.json b3.json
//
// The first form runs one workload in this process and prints, as its
// last line, one JSON object with the keys correct, attempted, failed
// and metrics. run and trace run every workload, each in a child
// process of its own; compare is the regression gate. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(cmdAll(os.Args[2:], false))
		case "trace":
			os.Exit(cmdAll(os.Args[2:], true))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(cmdOne(os.Args[1:]))
}

// cmdOne runs one workload in this process.
func cmdOne(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "how long to measure, set-ups included; the traced pass scales its op count by it")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans here as a Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	run := runE2E
	if *trace == 1 {
		run = func(ctx context.Context, w workload, seed int64, seconds float64) (result, *table, error) {
			return runTrace(ctx, w, seed, seconds, *traceOut)
		}
	}
	res, tab, err := run(context.Background(), w, *seed, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	tab.print(w.name)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// session runs a workload's jobs round by round, numbering them on
// across rounds.
type session struct {
	w        workload
	h        harness
	next     int // number of the next job
	bad      int // failed jobs outside measured windows
	firstErr error
}

// loop runs the next n jobs closed-loop against r.
func (s *session) loop(ctx context.Context, r rig, n int) loopResult {
	lr := closedLoop(ctx, s.w.clients, s.next, n, r.job)
	s.next += n
	if s.firstErr == nil {
		s.firstErr = lr.firstErr
	}
	return lr
}

// round sets up a fresh system and warms it: its cache primes, one job
// per client, and extra more. It returns the set-up time less any time
// spent computing reference reports.
func (s *session) round(ctx context.Context, extra int) (rig, time.Duration, error) {
	checked := s.h.checking()
	start := time.Now()
	r, err := s.h.setup(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	s.bad += s.loop(ctx, r, r.primes()+s.w.clients+extra).failed
	return r, time.Since(start) - (s.h.checking() - checked), nil
}

func (s *session) reportErr() {
	if s.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.w.name, s.firstErr)
	}
}

// runE2E measures one workload end to end for at most seconds, set-ups
// included, after a warm-up round. The measured jobs run in rounds of
// w.roundJobs, each on a freshly set-up system, because the daemon
// keeps every job it ran: rounds bound the retained state, and each
// round's set-up is one sample of setup_s. Each round is also one
// window for the other metrics, and every metric is the median over the
// rounds, so a burst of load from other tenants of the machine that
// slows a few rounds does not move it.
func runE2E(ctx context.Context, w workload, seed int64, seconds float64) (result, *table, error) {
	h, err := w.prepare(seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("inputs: %w", err)
	}
	s := &session{w: w, h: h}
	var (
		attempted, failed                  int
		used                               usage
		setups, perSec, p50, p90, cpu, obj []float64
	)
	// A first round, as long as the others, warms the process up.
	r, _, err := s.round(ctx, w.roundJobs)
	if err != nil {
		return result{}, nil, err
	}
	r.close()
	budget := time.Duration(seconds * float64(time.Second))
	start, last := time.Now(), time.Duration(0)
	// A round starts only if, as long as the last one, it ends in budget.
	for len(setups) == 0 || time.Since(start)+last <= budget {
		began := time.Now()
		r, setup, err := s.round(ctx, 0)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, setup.Seconds())
		u0 := readUsage()
		lr := s.loop(ctx, r, w.roundJobs)
		u := readUsage().sub(u0)
		r.close()
		last = time.Since(began)
		used = used.add(u)
		attempted += w.roundJobs
		failed += lr.failed
		if len(lr.lat) == 0 {
			continue
		}
		sorted := millis(lr.lat)
		perSec = append(perSec, float64(len(lr.lat))/lr.wall.Seconds())
		p50 = append(p50, quantile(sorted, 0.5))
		p90 = append(p90, quantile(sorted, 0.9))
		cpu = append(cpu, ms(u.cpu)/float64(w.roundJobs))
		obj = append(obj, float64(u.allocs)/float64(w.roundJobs))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	s.reportErr()

	tab := &table{}
	tab.add("setup_s", "s", median(setups), len(setups))
	tab.add("jobs_per_s", "1/s", median(perSec), len(perSec))
	tab.add("job_p50_ms", "ms", median(p50), len(p50))
	tab.add("job_p90_ms", "ms", median(p90), len(p90))
	tab.add("cpu_ms_per_job", "ms", median(cpu), len(cpu))
	tab.add("allocs_per_job", "count", median(obj), len(obj))
	tab.add("peak_rss_mb", "MiB", rss, 1)
	tab.note("failed_frac", "ratio", float64(failed)/float64(attempted), attempted)
	tab.note("runtime.gc_cpu_frac", "ratio", used.gcCPU/used.totalCPU, attempted)
	tab.note("runtime.alloc_mb_per_job", "MiB", float64(used.allocBytes)/float64(attempted)/(1<<20), attempted)
	tab.note("gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)), 1)
	return result{
		Correct:   s.bad == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   tab.metrics(),
	}, tab, nil
}

// runTrace is the traced pass. A first round runs one round of jobs
// untraced and reads the runtime counters over them; a second round
// runs the traced ops from one client. No end-to-end metric comes from
// it.
func runTrace(ctx context.Context, w workload, seed int64, seconds float64, chromeOut string) (result, *table, error) {
	window := w.roundJobs
	// The facade runs of the small-program workloads take about 2 ms, so
	// a median over fewer ops than this is mostly scheduling noise.
	ops := max(10, int(math.Ceil(float64(w.traceOps)*seconds/defaultSeconds)))
	h, err := w.prepare(seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("inputs: %w", err)
	}
	s := &session{w: w, h: h}
	r, _, err := s.round(ctx, window)
	if err != nil {
		return result{}, nil, err
	}
	u0 := readUsage()
	lr := s.loop(ctx, r, window)
	used := readUsage().sub(u0)
	r.close()
	ls := newLayerSamples()
	ls.add("runtime.gc_cpu_frac", used.gcCPU/used.totalCPU)
	ls.add("runtime.alloc_mb_per_job", float64(used.allocBytes)/float64(window)/(1<<20))

	if r, _, err = s.round(ctx, 0); err != nil {
		return result{}, nil, err
	}
	defer r.close()
	s.reportErr()
	failed := lr.failed
	t := &tracer{}
	if err := r.tracePass(ctx, t, s.next, ops, ls); err != nil {
		// The pass stops at its first error, so none of its ops count.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		failed += ops
	}
	if chromeOut != "" {
		if err := writeChrome(chromeOut, t.chromeEvents(1)); err != nil {
			return result{}, nil, err
		}
	}
	tab := &table{}
	ls.medians(tab)
	return result{
		Correct:   s.bad == 0 && failed == 0,
		Attempted: window + ops,
		Failed:    failed,
		Metrics:   tab.metrics(),
	}, tab, nil
}

// runFile is what run writes with -out: every workload's result line,
// and what compare reads.
type runFile struct {
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Results    map[string]result `json:"results"`
}

// cmdAll runs every workload, each in a child process, so heap and
// peak RSS belong to one workload alone.
func cmdAll(args []string, traced bool) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed for every workload's inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "measured time per workload")
	out := fs.String("out", "", "write the results (run) or the Chrome trace (trace) here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("bench: seed %d, %g s per workload, GOMAXPROCS %d, %d CPUs, %s\n",
		*seed, *seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	file := runFile{Seed: *seed, Seconds: *seconds, GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Results: map[string]result{}}
	var events []chromeEvent
	status := 0
	for i, w := range workloads {
		child := []string{"--workload", w.name, "--seed", strconv.FormatInt(*seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0"}
		part := ""
		if traced {
			child[len(child)-1] = "1"
			if *out != "" {
				part = fmt.Sprintf("%s.%s.part", *out, w.name)
				child = append(child, "--trace-out", part)
			}
		}
		res, err := runChild(exe, child)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		if !res.Correct || res.Failed > 0 {
			status = 1
		}
		file.Results[w.name] = res
		fmt.Printf("%-14s correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		if part != "" {
			evs, err := readChrome(part)
			os.Remove(part)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				status = 1
				continue
			}
			events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: i + 1,
				Args: map[string]any{"name": w.name}})
			for _, ev := range evs {
				ev.Pid = i + 1
				events = append(events, ev)
			}
		}
	}
	if *out != "" {
		var err error
		if traced {
			err = writeChrome(*out, events)
		} else {
			err = writeJSON(*out, file)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process, relays its table, and
// returns the result from its last line.
func runChild(exe string, args []string) (result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return result{}, err
	}
	if scanErr != nil {
		return result{}, scanErr
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readRunFile(path string) (runFile, error) {
	var f runFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Results) == 0 {
		return f, errors.New(path + ": no results")
	}
	return f, nil
}
