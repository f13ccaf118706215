package progconv

// Satellite-4 acceptance: the wire trace JSON (timing omitted) and the
// Prometheus histogram exposition for the Figure 4.3 conversion are
// byte-identical at parallelism 1 and 8, pinned by golden files.
// The run is untimed (no WithMetrics), so every stage duration is zero
// and the histograms land in deterministic buckets; span IDs derive
// from the trace ID and structural paths, never wall clock.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/telemetry"
	"progconv/internal/wire"
)

// captureTraceAndMetrics runs the standard conversion with a pinned
// trace ID and returns the omit-timing trace JSON and the registry
// exposition.
func captureTraceAndMetrics(t *testing.T, parallelism int) ([]byte, []byte) {
	t.Helper()
	tb := NewTraceBuilder(DeriveTraceID("trace-golden"), "convert")
	reg := telemetry.NewRegistry()
	inst := telemetry.NewInstruments(reg)
	report, err := Convert(t.Context(), schema.CompanyV1(), schema.CompanyV2(), nil,
		eventPrograms(t), WithParallelism(parallelism), WithTraceSink(tb),
		WithEventSink(inst.StageSink()), WithVerifyDB(eventDB(t)))
	if err != nil {
		t.Fatal(err)
	}
	if report.Trace == nil {
		t.Fatal("Report.Trace is nil with a trace sink installed")
	}
	inst.ObserveDataPlane(report.DataPlane)
	var trace, metrics bytes.Buffer
	if err := wire.EncodeTrace(&trace, report.Trace, true); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	return trace.Bytes(), metrics.Bytes()
}

// TestTraceGolden pins the trace document and histogram exposition and
// proves both are parallelism-independent. Regenerate with
//
//	UPDATE_GOLDEN=1 go test -run TraceGolden .
func TestTraceGolden(t *testing.T) {
	trace1, metrics1 := captureTraceAndMetrics(t, 1)
	trace8, metrics8 := captureTraceAndMetrics(t, 8)
	if !bytes.Equal(trace1, trace8) {
		t.Errorf("omit-timing trace differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			trace1, trace8)
	}
	if !bytes.Equal(metrics1, metrics8) {
		t.Errorf("histogram exposition differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			metrics1, metrics8)
	}
	for _, g := range []struct {
		name string
		got  []byte
	}{
		{"trace.golden.json", trace1},
		{"metrics.golden.prom", metrics1},
	} {
		golden := filepath.Join("testdata", g.name)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s diverged (set UPDATE_GOLDEN=1 to regenerate)\n--- got ---\n%s", golden, g.got)
		}
	}
}
