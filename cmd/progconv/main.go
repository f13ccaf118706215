// Command progconv is the conversion framework's command line: schema
// checking and diffing, program analysis, full conversions, and program
// execution for the dbprog language.
//
//	progconv check <schema.ddl>
//	progconv diff <source.ddl> <target.ddl>
//	progconv analyze <schema.ddl> <program.prog>
//	progconv convert [-accept-order] [-stats] [-parallel N] [-events f.jsonl]
//	                 [-trace f.json] [-metrics-out f.prom] [-debug-addr :6060]
//	                 [-timeout d] [-stage-timeout d] [-analyst-timeout d]
//	                 [-retries N] [-on-failure fail-fast|collect|budget:N]
//	                 [-cache] [-cache-size N] [-verify-init prog] [-report-json f.json]
//	                 [-inject spec] [-fail-on manual|qualified]
//	                 <source.ddl> <target.ddl> <program.prog>...
//	progconv run [-init <program.prog>] [-input line]... <schema.ddl> <program.prog>
//
// Exit codes: 0 success; 1 run error; 2 usage; 3 the -fail-on gate
// tripped; 4 the batch completed but programs failed in the pipeline
// (possible only under -on-failure collect or budget:N).
package main

import (
	"bufio"
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"time"

	"progconv"
	"progconv/internal/analyzer"
	"progconv/internal/dbprog"
	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/relstore"
	"progconv/internal/schema/ddl"
	"progconv/internal/telemetry"
	"progconv/internal/wire"
	"progconv/internal/xform"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = cmdCheck(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		// The stderr line leads with the machine-readable token from the
		// shared error-code table, so scripts parse CLI failures and
		// daemon ErrorDocs with one vocabulary.
		code := wire.ExitError
		var xe exitError
		if errors.As(err, &xe) {
			code = xe.code
		}
		fmt.Fprintf(os.Stderr, "progconv: %s: %v\n", wire.CodeFor(code), err)
		os.Exit(int(code))
	}
}

// exitError carries a specific process exit code from the shared
// wire-schema table (the -fail-on and pipeline-failure paths).
type exitError struct {
	code wire.ExitCode
	msg  string
}

func (e exitError) Error() string { return e.msg }

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  progconv check <schema.ddl>
  progconv diff <source.ddl> <target.ddl>
  progconv analyze <schema.ddl> <program.prog>
  progconv convert [-accept-order] [-stats] [-parallel N] [-events f.jsonl]
                   [-trace f.json] [-metrics-out f.prom] [-debug-addr :6060]
                   [-timeout d] [-stage-timeout d] [-analyst-timeout d]
                   [-retries N] [-on-failure fail-fast|collect|budget:N]
                   [-cache] [-cache-size N] [-verify-init prog] [-report-json f.json]
                   [-inject spec] [-fail-on manual|qualified]
                   <source.ddl> <target.ddl> <program.prog>...
  progconv run [-init <program.prog>] [-input line]... <schema.ddl> <program.prog>`)
	os.Exit(int(wire.ExitUsage))
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func loadProgram(path string) (*progconv.Program, error) {
	src, err := readFile(path)
	if err != nil {
		return nil, err
	}
	p, err := progconv.ParseProgram(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func cmdCheck(args []string) error {
	if len(args) != 1 {
		usage()
	}
	src, err := readFile(args[0])
	if err != nil {
		return err
	}
	parsed, err := ddl.Parse(src)
	if err != nil {
		return err
	}
	switch parsed.Kind() {
	case "network":
		n := parsed.Network
		fmt.Printf("network schema %s: %d record types, %d set types\n",
			n.Name, len(n.Records), len(n.Sets))
		fmt.Print(n.DDL())
	case "relational":
		r := parsed.Relational
		fmt.Printf("relational schema %s: %d relations\n", r.Name, len(r.Relations))
		fmt.Print(r.DDL())
	case "hierarchical":
		h := parsed.Hierarchy
		fmt.Printf("hierarchical schema %s: %d segment types\n", h.Name, len(h.Preorder()))
		fmt.Print(h.DDL())
	}
	return nil
}

func cmdDiff(args []string) error {
	if len(args) != 2 {
		usage()
	}
	pair, err := loadPair(args[0], args[1])
	if err != nil {
		return err
	}
	src, err := ddl.Parse(pair.srcText)
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	dst, err := ddl.Parse(pair.dstText)
	if err != nil {
		return fmt.Errorf("%s: %w", args[1], err)
	}
	var describe string
	var invertible bool
	switch pair.kind {
	case "network":
		plan, err := xform.Classify(src.Network, dst.Network)
		if err != nil {
			return err
		}
		describe, invertible = plan.Describe(), plan.Invertible()
	case "hierarchical":
		plan, err := xform.ClassifyHier(src.Hierarchy, dst.Hierarchy)
		if err != nil {
			return err
		}
		describe, invertible = plan.Describe(), plan.Invertible()
	}
	fmt.Println("classified transformation plan:")
	fmt.Print(describe)
	fmt.Printf("invertible: %v\n", invertible)
	return nil
}

// schemaPair is a conversion pair's two schema files: their text and
// the data model they share.
type schemaPair struct {
	srcText, dstText string
	kind             string
}

// loadPair reads both schema files and checks from their leading
// keywords (ddl.Model) that they name the same data model, without
// parsing them. The conversion pipeline pairs network and hierarchical
// schemas; relational schemas are valid elsewhere (check, run) but
// have no transformation catalogue, so they are rejected here by name
// rather than with a parse error.
func loadPair(srcPath, dstPath string) (*schemaPair, error) {
	var p schemaPair
	var err error
	if p.srcText, err = readFile(srcPath); err != nil {
		return nil, err
	}
	if p.dstText, err = readFile(dstPath); err != nil {
		return nil, err
	}
	if p.kind, err = ddl.Model(p.srcText); err != nil {
		return nil, fmt.Errorf("%s: %w", srcPath, err)
	}
	dstKind, err := ddl.Model(p.dstText)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dstPath, err)
	}
	if p.kind != dstKind {
		return nil, fmt.Errorf("%s is a %s schema but %s is %s: a conversion pair shares one data model",
			srcPath, p.kind, dstPath, dstKind)
	}
	if p.kind == "relational" {
		return nil, fmt.Errorf("the relational model is not supported here: conversion pairs are network or hierarchical")
	}
	return &p, nil
}

func cmdAnalyze(args []string) error {
	if len(args) != 2 {
		usage()
	}
	schText, err := readFile(args[0])
	if err != nil {
		return err
	}
	parsed, err := ddl.Parse(schText)
	if err != nil {
		return err
	}
	p, err := loadProgram(args[1])
	if err != nil {
		return err
	}
	// The network analysis consults its schema for set traversals; the
	// hierarchical one is schema-free (DL/I paths carry their own
	// segment names). Relational schemas have no DML to analyze against.
	var abs *analyzer.Abstract
	switch parsed.Kind() {
	case "network":
		abs = analyzer.Analyze(context.Background(), p, parsed.Network)
	case "hierarchical":
		abs = analyzer.Analyze(context.Background(), p, nil)
	default:
		return fmt.Errorf("the relational model is not supported by analyze: pass a network or hierarchical schema")
	}
	fmt.Print(abs.Describe())
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	acceptOrder := fs.Bool("accept-order", false,
		"analyst accepts conversions whose output order may change")
	stats := fs.Bool("stats", false,
		"print per-stage timing statistics after the report\n"+
			"(histogram buckets are 1µs·4ⁱ upper bounds: ≤1µs, ≤4µs, ≤16µs, …)")
	parallel := fs.Int("parallel", 0,
		"worker pool size (0 = GOMAXPROCS, 1 = serial)")
	migrateParallel := fs.Int("migrate-parallel", 0,
		"data-migration shard workers (0 = GOMAXPROCS, 1 = serial);\n"+
			"output is byte-identical at any setting")
	eventsOut := fs.String("events", "",
		"write the structured event log to this JSONL file")
	traceOut := fs.String("trace", "",
		"write stage spans as Chrome trace_event JSON to this file\n"+
			"(load in chrome://tracing or ui.perfetto.dev)")
	metricsOut := fs.String("metrics-out", "",
		"write run counters and the queue-wait, job-duration, stage-latency\n"+
			"and data-plane probe histograms in Prometheus text format to this file")
	debugAddr := fs.String("debug-addr", "",
		"serve pprof, expvar, /metrics and /statusz at this address (e.g. :6060);\n"+
			"unauthenticated — keep it on loopback")
	failOn := fs.String("fail-on", "",
		"exit with code 3 when the report contains these dispositions:\n"+
			"manual (manual or failed) or qualified (manual, failed or qualified)")
	timeout := fs.Duration("timeout", 0,
		"per-program budget for the whole analyze → verify chain (0 = unbounded);\n"+
			"an expiry fails that program, not the batch")
	stageTimeout := fs.Duration("stage-timeout", 0,
		"per-stage budget for each pipeline stage attempt (0 = unbounded)")
	analystTimeout := fs.Duration("analyst-timeout", 0,
		"budget for each analyst consultation; an expiry declines the\n"+
			"conversion and routes the program to manual (0 = unbounded)")
	retries := fs.Int("retries", 0,
		"retry stage attempts failing with transient errors up to N times")
	onFailure := fs.String("on-failure", "fail-fast",
		"what a failed program does to the batch: fail-fast aborts,\n"+
			"collect completes around failures (exit 4), budget:N tolerates N-1")
	useCache := fs.Bool("cache", false,
		"memoize pair-scoped artifacts and per-program results in a\n"+
			"content-addressed conversion cache (repeated programs convert once)")
	cacheSize := fs.Int("cache-size", 0,
		"with -cache: retained pair contexts (0 = the default 64)")
	inject := fs.String("inject", "",
		"arm the deterministic fault injector (debugging/chaos drills);\n"+
			"spec: [seed=S,]kind[=dur]@prog-glob/stage[:count][~rate],...\n"+
			"kinds: panic, transient, delay (e.g. 'panic@P-0*/convert,delay=2s@*/analyze')")
	verifyInit := fs.String("verify-init", "",
		"program run against an empty source database to populate it;\n"+
			"the populated database is migrated through the plan and every\n"+
			"automatic conversion is verified I/O-equivalent against it")
	reportJSON := fs.String("report-json", "",
		"write the report as a wire-versioned JSON document to this file\n"+
			"('-' for stdout) — the same bytes progconvd serves for the job")
	fs.Parse(args)
	// The two policy flags are checked before the argument count, so a
	// bad value exits 1 even without files.
	if !wire.ValidFailOn(*failOn) {
		return fmt.Errorf("-fail-on must be \"manual\" or \"qualified\", got %q", *failOn)
	}
	if _, err := wire.ParseFailurePolicy(*onFailure); err != nil {
		return fmt.Errorf("-on-failure: %w", err)
	}
	rest := fs.Args()
	if len(rest) < 3 {
		usage()
	}
	// The files become the JobSpec progconvctl submit would send; the
	// model comes from the DDL dialect. Negative pool sizes and retry
	// counts mean the default, which the spec spells 0.
	pair, err := loadPair(rest[0], rest[1])
	if err != nil {
		return err
	}
	spec := &progconv.JobSpec{Model: pair.kind, SourceDDL: pair.srcText, TargetDDL: pair.dstText,
		Options: progconv.JobOptions{
			Parallelism:     max(*parallel, 0),
			MigrateParallel: max(*migrateParallel, 0),
			AcceptOrder:     *acceptOrder,
			Timeout:         timeout.String(),
			StageTimeout:    stageTimeout.String(),
			AnalystTimeout:  analystTimeout.String(),
			Retries:         max(*retries, 0),
			OnFailure:       *onFailure,
			FailOn:          *failOn,
			Inject:          *inject,
		}}
	for _, path := range rest[2:] {
		src, err := readFile(path)
		if err != nil {
			return err
		}
		spec.Programs = append(spec.Programs, progconv.ProgramSpec{Source: src})
	}
	if *verifyInit != "" {
		if spec.Options.VerifyInit, err = readFile(*verifyInit); err != nil {
			return err
		}
		if spec.Options.VerifyInit == "" {
			// An empty verify_init means "no database"; an empty file is
			// a program that does not parse.
			return fmt.Errorf("%s: empty verify-init program", *verifyInit)
		}
	}
	job, opts, err := progconv.NewJob(spec)
	if err != nil {
		return err
	}
	// Interrupt cancels the batch mid-inventory (ErrCanceled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts = append(opts, progconv.WithMetrics())
	var cache *progconv.Cache
	if *useCache {
		cache = progconv.NewCache(*cacheSize)
		opts = append(opts, progconv.WithCache(cache))
	}

	// Event sinks: a streaming JSONL file and/or a counter tally feeding
	// the Prometheus file and the live expvar endpoint.
	var sinks []progconv.Sink
	var jsonl *progconv.JSONLSink
	var eventsBuf *bufio.Writer
	var eventsFile *os.File
	if *eventsOut != "" {
		eventsFile, err = os.Create(*eventsOut)
		if err != nil {
			return err
		}
		defer eventsFile.Close()
		eventsBuf = bufio.NewWriter(eventsFile)
		jsonl = progconv.NewJSONLSink(eventsBuf)
		sinks = append(sinks, jsonl)
	}
	var tally *progconv.Tally
	var reg *telemetry.Registry
	var inst *telemetry.Instruments
	if *metricsOut != "" || *debugAddr != "" {
		tally = progconv.NewTally()
		sinks = append(sinks, tally)
		reg = telemetry.NewRegistry()
		reg.Tally(tally)
		inst = telemetry.NewInstruments(reg)
		sinks = append(sinks, inst.StageSink())
	}
	if sink := progconv.MultiSink(sinks...); sink != nil {
		opts = append(opts, progconv.WithEventSink(sink))
	}
	// The trace builder mirrors the daemon's per-job span tree; the
	// trace ID is derived from the spec's schema and program text, so the
	// same invocation always yields the same IDs.
	if *traceOut != "" {
		seed := []string{spec.SourceDDL, spec.TargetDDL}
		for _, p := range spec.Programs {
			seed = append(seed, p.Source)
		}
		tb := progconv.NewTraceBuilder(progconv.DeriveTraceID(seed...), "convert")
		opts = append(opts, progconv.WithTraceSink(tb))
	}
	if *debugAddr != "" {
		// Same surface as the daemon's -debug-addr: pprof, expvar,
		// Prometheus text and a human statusz — not just expvar.
		expvar.Publish("progconv", expvar.Func(func() any { return tally.Snapshot() }))
		metrics := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w)
		})
		statusz := telemetry.StatuszHandler(time.Now(), telemetry.StatusSection{
			Title: "histograms",
			Write: func(w io.Writer) { reg.WriteSummary(w) },
		})
		go func() {
			if err := http.ListenAndServe(*debugAddr, telemetry.DebugMux(metrics, statusz)); err != nil {
				fmt.Fprintln(os.Stderr, "progconv: debug endpoint:", err)
			}
		}()
	}

	runStart := time.Now()
	report, err := progconv.ConvertJob(ctx, job, opts...)
	if err != nil {
		return err
	}
	if inst != nil {
		inst.JobDur.ObserveDuration("", time.Since(runStart))
		inst.ObserveDataPlane(report.DataPlane)
	}
	fmt.Print(report)
	for _, o := range report.Outcomes {
		if o.Generated != "" {
			fmt.Printf("\n--- converted %s ---\n%s", o.Name, o.Generated)
		}
	}
	if *stats {
		fmt.Printf("\n%s", report.Metrics)
	}
	if *stats && !report.DataPlane.Zero() {
		dp := report.DataPlane
		fmt.Printf("\ndata plane: %d index probes / %d scans, %d fused / %d stepwise migration steps\n",
			dp.IndexProbes, dp.IndexScans, dp.FusedSteps, dp.StepwiseSteps)
	}
	if *stats && cache != nil {
		s := cache.Stats()
		fmt.Printf("\ncache: %d pairs, %d memos\n", s.Pairs, s.Memos)
		fmt.Printf("  pair       %d hits / %d misses / %d evictions\n", s.PairHits, s.PairMisses, s.PairEvictions)
		fmt.Printf("  analysis   %d hits / %d misses / %d evictions\n", s.AnalysisHits, s.AnalysisMisses, s.AnalysisEvictions)
		fmt.Printf("  conversion %d hits / %d misses / %d evictions\n", s.ConversionHits, s.ConversionMisses, s.ConversionEvictions)
		fmt.Printf("  codegen    %d hits / %d misses / %d evictions\n", s.CodegenHits, s.CodegenMisses, s.CodegenEvictions)
	}
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			return fmt.Errorf("event log: %w", err)
		}
		if err := eventsBuf.Flush(); err != nil {
			return fmt.Errorf("event log: %w", err)
		}
		if err := eventsFile.Close(); err != nil {
			return fmt.Errorf("event log: %w", err)
		}
	}
	if *traceOut != "" {
		// The Chrome export is a rendering of the span tree the trace
		// sink built — the same tree the daemon serves as trace JSON.
		if err := writeFileWith(*traceOut, func(w *bufio.Writer) error {
			return progconv.WriteTraceChrome(w, report.Trace)
		}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if *metricsOut != "" {
		tally.AddDataPlane(report.DataPlane)
		if err := writeFileWith(*metricsOut, func(w *bufio.Writer) error {
			return reg.WritePrometheus(w)
		}); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if *reportJSON != "" {
		if *reportJSON == "-" {
			if err := progconv.EncodeReportJSON(os.Stdout, report); err != nil {
				return fmt.Errorf("report-json: %w", err)
			}
		} else if err := writeFileWith(*reportJSON, func(w *bufio.Writer) error {
			return progconv.EncodeReportJSON(w, report)
		}); err != nil {
			return fmt.Errorf("report-json: %w", err)
		}
	}
	// The tolerant policies let the batch complete around broken
	// programs; the shared exit-code table still says the run was not
	// clean (pipeline failures outrank the -fail-on gate).
	if code, msg := wire.ExitFor(report, *failOn); code != wire.ExitOK {
		return exitError{code: code, msg: msg}
	}
	return nil
}

// writeFileWith creates path and streams into it through a buffered
// writer, surfacing flush and close errors.
func writeFileWith(path string, fn func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fn(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	initPath := fs.String("init", "", "program run first to populate the database")
	var inputs inputList
	fs.Var(&inputs, "input", "terminal input line (repeatable)")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 2 {
		usage()
	}
	schText, err := readFile(rest[0])
	if err != nil {
		return err
	}
	parsed, err := ddl.Parse(schText)
	if err != nil {
		return err
	}
	p, err := loadProgram(rest[1])
	if err != nil {
		return err
	}
	cfg := dbprog.Config{TerminalInput: inputs}
	switch parsed.Kind() {
	case "network":
		cfg.Net = netstore.NewDB(parsed.Network)
	case "relational":
		cfg.Rel = relstore.NewDB(parsed.Relational)
	case "hierarchical":
		cfg.Hier = hierstore.NewDB(parsed.Hierarchy)
	}
	if *initPath != "" {
		ip, err := loadProgram(*initPath)
		if err != nil {
			return err
		}
		if _, err := dbprog.Run(ip, cfg); err != nil {
			return fmt.Errorf("init program: %w", err)
		}
	}
	trace, err := dbprog.Run(p, cfg)
	fmt.Print(trace)
	return err
}

type inputList []string

func (l *inputList) String() string { return fmt.Sprint([]string(*l)) }

func (l *inputList) Set(v string) error {
	*l = append(*l, v)
	return nil
}
