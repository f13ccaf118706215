package serve

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"progconv"
	"progconv/internal/dbprog"
	"progconv/internal/netstore"
)

// directRun executes the testSpec workload through the public facade
// exactly as cmd/progconv would — the reference the daemon's wire
// output must match byte for byte. opts adds observers.
func directRun(t *testing.T, parallelism int, opts ...progconv.Option) ([]byte, []progconv.Event) {
	t.Helper()
	spec := testSpec()
	src, err := progconv.ParseNetworkSchema(spec.SourceDDL)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := progconv.ParseNetworkSchema(spec.TargetDDL)
	if err != nil {
		t.Fatal(err)
	}
	var programs []*progconv.Program
	for _, p := range spec.Programs {
		prog, err := progconv.ParseProgram(p.Source)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, prog)
	}
	init, err := progconv.ParseProgram(spec.Options.VerifyInit)
	if err != nil {
		t.Fatal(err)
	}
	db := netstore.NewDB(src)
	if _, err := dbprog.Run(init, dbprog.Config{Net: db}); err != nil {
		t.Fatal(err)
	}
	ring := progconv.NewRingSink(4096)
	report, err := progconv.Convert(context.Background(), src, dst, nil, programs,
		append([]progconv.Option{progconv.WithParallelism(parallelism),
			progconv.WithEventSink(ring),
			progconv.WithVerifyDB(db)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := progconv.EncodeReportJSON(&buf, report); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ring.Events()
}

// serverRun submits the same workload to a fresh daemon and returns
// the served report and event-stream bytes.
func serverRun(t *testing.T, parallelism int) (report, events []byte) {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	spec := testSpec()
	spec.Options.Parallelism = parallelism
	id := submitOK(t, ts.URL, spec)
	if st := waitTerminal(t, ts.URL, id); st.State != "done" {
		t.Fatalf("job ended %q: %s", st.State, st.Error)
	}
	code, report := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != 200 {
		t.Fatalf("report: HTTP %d", code)
	}
	code, events = getBody(t, ts.URL+"/v1/jobs/"+id+"/events?omit_timing=1")
	if code != 200 {
		t.Fatalf("events: HTTP %d", code)
	}
	return report, events
}

// TestServerReportMatchesCLI is the tentpole invariant: the daemon's
// report endpoint serves exactly the bytes the CLI writes for the same
// inputs, at any parallelism.
func TestServerReportMatchesCLI(t *testing.T) {
	cliReport, _ := directRun(t, 1)
	for _, parallelism := range []int{1, 8} {
		serverReport, _ := serverRun(t, parallelism)
		if !bytes.Equal(cliReport, serverReport) {
			t.Fatalf("parallelism %d: server report diverges from the CLI bytes\nCLI:    %.200s\nserver: %.200s",
				parallelism, cliReport, serverReport)
		}
	}
	// The direct run is itself parallelism-independent.
	cliReport8, _ := directRun(t, 8)
	if !bytes.Equal(cliReport, cliReport8) {
		t.Fatal("direct runs diverge between parallelism 1 and 8")
	}
}

// TestServerMigrateParallelByteIdentical: the report, the event
// stream, and the trace the daemon serves are byte-identical whether
// the data migration runs serial or sharded eight ways — and whether
// the shard count arrives per job or as the server default.
func TestServerMigrateParallelByteIdentical(t *testing.T) {
	run := func(migratePar, serverDefault int) (report, events, trace []byte) {
		t.Helper()
		_, ts := newTestServer(t, Config{DefaultMigrateParallel: serverDefault})
		spec := testSpec()
		spec.Options.MigrateParallel = migratePar
		id := submitOK(t, ts.URL, spec)
		if st := waitTerminal(t, ts.URL, id); st.State != "done" {
			t.Fatalf("job ended %q: %s", st.State, st.Error)
		}
		code, report := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
		if code != 200 {
			t.Fatalf("report: HTTP %d", code)
		}
		code, events = getBody(t, ts.URL+"/v1/jobs/"+id+"/events?omit_timing=1")
		if code != 200 {
			t.Fatalf("events: HTTP %d", code)
		}
		code, trace = getBody(t, ts.URL+"/v1/jobs/"+id+"/trace?omit_timing=1")
		if code != 200 {
			t.Fatalf("trace: HTTP %d", code)
		}
		return report, events, trace
	}

	baseReport, baseEvents, baseTrace := run(1, 0)
	for _, c := range []struct {
		name               string
		migratePar, server int
	}{
		{"job-option-2", 2, 0},
		{"job-option-8", 8, 0},
		{"server-default-8", 0, 8},
		{"job-overrides-default", 8, 1},
	} {
		report, events, trace := run(c.migratePar, c.server)
		if !bytes.Equal(report, baseReport) {
			t.Errorf("%s: report diverges from serial bytes\nserial: %.200s\ngot:    %.200s",
				c.name, baseReport, report)
		}
		if !bytes.Equal(events, baseEvents) {
			t.Errorf("%s: event stream diverges from serial bytes\nserial: %.200s\ngot:    %.200s",
				c.name, baseEvents, events)
		}
		if !bytes.Equal(trace, baseTrace) {
			t.Errorf("%s: trace diverges from serial bytes\nserial: %.200s\ngot:    %.200s",
				c.name, baseTrace, trace)
		}
	}
}

// TestServerMigrateParallelDefault: a job that leaves migrate_parallel
// zero migrates with the server's default shard workers, and a job's
// own value overrides that default. The report bytes are the same at
// any setting, so the exported shard counter tells the runs apart: a
// 256-EMP source database fans out only when the parallelism allows.
func TestServerMigrateParallelDefault(t *testing.T) {
	var init strings.Builder
	init.WriteString("PROGRAM BIG-INIT DIALECT NETWORK.\n  MOVE 'MACHINERY' TO DIV-NAME IN DIV.\n  STORE DIV.\n")
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&init, "  MOVE 'E%03d' TO EMP-NAME IN EMP.\n  STORE EMP.\n", i)
	}
	init.WriteString("END PROGRAM.\n")
	shards := func(migratePar, serverDefault int) string {
		t.Helper()
		_, ts := newTestServer(t, Config{DefaultMigrateParallel: serverDefault})
		spec := testSpec()
		spec.Options.VerifyInit = init.String()
		spec.Options.MigrateParallel = migratePar
		id := submitOK(t, ts.URL, spec)
		if st := waitTerminal(t, ts.URL, id); st.State != "done" {
			t.Fatalf("job ended %q: %s", st.State, st.Error)
		}
		_, metrics := getBody(t, ts.URL+"/metrics")
		for _, line := range strings.Split(string(metrics), "\n") {
			if v, ok := strings.CutPrefix(line, "progconv_migration_shards_total "); ok {
				return v
			}
		}
		t.Fatalf("no migration shard counter in /metrics:\n%s", metrics)
		return ""
	}
	serial := shards(0, 1)
	if got := shards(0, 4); got == serial {
		t.Errorf("migrate_parallel 0 under server default 4: %s shards, the same as a serial run", got)
	}
	if got := shards(1, 4); got != serial {
		t.Errorf("migrate_parallel 1 under server default 4: %s shards, want the serial %s", got, serial)
	}
}

// TestServerHierMigrateParallelByteIdentical: the hierarchical (DL/I)
// counterpart — per-root sharded reorder migration serves the same
// report and event bytes as the serial path.
func TestServerHierMigrateParallelByteIdentical(t *testing.T) {
	run := func(migratePar int) (report, events []byte) {
		t.Helper()
		_, ts := newTestServer(t, Config{})
		spec := hierSpec(t)
		spec.Options.MigrateParallel = migratePar
		id := submitOK(t, ts.URL, spec)
		if st := waitTerminal(t, ts.URL, id); st.State != "done" {
			t.Fatalf("job ended %q: %s", st.State, st.Error)
		}
		code, report := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
		if code != 200 {
			t.Fatalf("report: HTTP %d", code)
		}
		code, events = getBody(t, ts.URL+"/v1/jobs/"+id+"/events?omit_timing=1")
		if code != 200 {
			t.Fatalf("events: HTTP %d", code)
		}
		return report, events
	}
	baseReport, baseEvents := run(1)
	for _, migratePar := range []int{2, 8} {
		report, events := run(migratePar)
		if !bytes.Equal(report, baseReport) {
			t.Errorf("migrate_parallel %d: hier report diverges from serial bytes", migratePar)
		}
		if !bytes.Equal(events, baseEvents) {
			t.Errorf("migrate_parallel %d: hier event stream diverges from serial bytes", migratePar)
		}
	}
}

// TestServerEventsMatchCLI checks the event stream against the CLI's
// -events JSONL at parallelism 1, where the interleaving itself is
// deterministic (timing fields omitted on both sides).
func TestServerEventsMatchCLI(t *testing.T) {
	_, cliEvents := directRun(t, 1)
	var buf bytes.Buffer
	if err := progconv.EncodeJSONL(&buf, cliEvents, true); err != nil {
		t.Fatal(err)
	}
	_, serverEvents := serverRun(t, 1)
	if !bytes.Equal(buf.Bytes(), serverEvents) {
		t.Fatalf("server event stream diverges from CLI JSONL\nCLI:    %.200s\nserver: %.200s",
			buf.Bytes(), serverEvents)
	}
}
