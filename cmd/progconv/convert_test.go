package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"progconv"
	"progconv/client"
	"progconv/internal/serve"
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

// companyInit seeds the COMPANY source database for verification.
const companyInit = `PROGRAM INIT-DB DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  MOVE 'DETROIT' TO DIV-LOC IN DIV.
  STORE DIV.
  MOVE 'ADAMS' TO EMP-NAME IN EMP.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  MOVE 45 TO AGE IN EMP.
  STORE EMP.
END PROGRAM.
`

// TestConvertReportMatchesDaemon: convert -report-json writes exactly
// the bytes a daemon serves for the JobSpec progconvctl submit builds
// from the same files, for a network and a hierarchical pair, both
// verified against a seeded database.
func TestConvertReportMatchesDaemon(t *testing.T) {
	dir := t.TempDir()
	companyInitPath := filepath.Join(dir, "init.prog")
	if err := os.WriteFile(companyInitPath, []byte(companyInit), 0o644); err != nil {
		t.Fatal(err)
	}
	company := filepath.Join("..", "..", "examples", "company")
	ims := filepath.Join("..", "..", "examples", "imsreorder")
	cases := []struct {
		name, model, init string
		files             []string // source DDL, target DDL, programs
	}{
		{"company", "", companyInitPath, []string{
			filepath.Join(company, "company-v1.ddl"), filepath.Join(company, "company-v2.ddl"),
			filepath.Join(company, "roster.prog")}},
		{"imsreorder", progconv.ModelHierarchical, filepath.Join(ims, "seed.prog"), []string{
			filepath.Join(ims, "personnel-v1.ddl"), filepath.Join(ims, "personnel-v2.ddl"),
			filepath.Join(ims, "deptmgr.prog"), filepath.Join(ims, "empbyid.prog"),
			filepath.Join(ims, "tenured.prog")}},
	}

	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Error(err)
		}
	}()
	cli := client.New(ts.URL)
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for _, c := range cases {
		out := filepath.Join(dir, c.name+".json")
		args := append([]string{"-parallel", "1", "-verify-init", c.init, "-report-json", out}, c.files...)
		if err := cmdConvert(args); err != nil {
			t.Fatalf("%s: convert: %v", c.name, err)
		}
		want := read(out)

		spec := &progconv.JobSpec{Model: c.model, SourceDDL: read(c.files[0]), TargetDDL: read(c.files[1]),
			Options: progconv.JobOptions{Parallelism: 1, VerifyInit: read(c.init)}}
		for _, path := range c.files[2:] {
			spec.Programs = append(spec.Programs, progconv.ProgramSpec{Source: read(path)})
		}
		ctx := context.Background()
		st, err := cli.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("%s: submit: %v", c.name, err)
		}
		got, _, err := cli.WaitReport(ctx, st.ID, 0)
		if err != nil {
			t.Fatalf("%s: report: %v", c.name, err)
		}
		if string(got) != want {
			t.Errorf("%s: daemon report diverges from the CLI's\nCLI:    %.300s\ndaemon: %.300s", c.name, want, got)
		}
		if !strings.Contains(want, `"verified"`) {
			t.Errorf("%s: no program was verified: %.300s", c.name, want)
		}
	}
}
