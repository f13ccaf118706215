package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Spans of one op share its op number.
type span struct {
	name       string
	op         int
	parent     int // index of the parent span; -1 for an op's top level
	start, end time.Time
}

// tracer keeps an op's spans in memory until the run ends. The traced
// pass runs one op at a time, so it needs no locking.
type tracer struct {
	spans []span
}

func (t *tracer) open(op, parent int, name string) int {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) { t.spans[id].end = time.Now() }

// record adds a span whose times were taken elsewhere.
func (t *tracer) record(op, parent int, name string, start, end time.Time) {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start, end: end})
}

// span times fn as a child of parent and returns its duration.
func (t *tracer) span(op, parent int, name string, fn func()) time.Duration {
	id := t.open(op, parent, name)
	fn()
	t.close(id)
	return t.spans[id].end.Sub(t.spans[id].start)
}

// selfTimes returns, for each op, the self time of its spans summed by
// name: a span's duration minus the durations of its children.
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	out := map[int]map[string]time.Duration{}
	for i, s := range t.spans {
		m := out[s.op]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.op] = m
		}
		m[s.name] += s.end.Sub(s.start) - child[i]
	}
	return out
}

// chromeEvent is one Chrome trace_event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEvents renders the spans as trace events on one track; the
// viewer nests them by time containment.
func (t *tracer) chromeEvents(pid int) []chromeEvent {
	if len(t.spans) == 0 {
		return nil
	}
	epoch := t.spans[0].start
	out := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"op": s.op}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		out = append(out, chromeEvent{
			Name: s.name, Ph: "X", Pid: pid, Tid: 1, Args: args,
			Ts:  float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	return out
}

// writeChrome writes trace events as a Chrome trace_event document,
// loadable in chrome://tracing or Perfetto.
func writeChrome(path string, events []chromeEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if events == nil {
		events = []chromeEvent{}
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// readChrome reads back the events of a document writeChrome wrote.
func readChrome(path string) ([]chromeEvent, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.TraceEvents, nil
}

// layerSamples collects one value per op for each per-layer metric. An
// op where a layer did no work contributes no sample.
type layerSamples struct {
	vals map[string][]float64
}

func newLayerSamples() *layerSamples { return &layerSamples{vals: map[string][]float64{}} }

func (l *layerSamples) add(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		l.vals[name] = append(l.vals[name], v)
	}
}

// per divides x by n, or yields NaN (no sample) when n is zero.
func per(x float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return x / float64(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetric is one per-layer metric the traced pass reports.
type layerMetric struct {
	name, unit string
}

// layerMetrics lists every per-layer metric in report order. The names
// match BENCHMARK.json's per_layer list.
var layerMetrics = []layerMetric{
	{"serve.submit_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.report_ms", "ms"},
	{"serve.event_bytes_per_job", "B"},
	{"serve.report_bytes_per_job", "B"},
	{"dispatch.hop_ms", "ms"},
	{"dispatch.affinity_ratio", "ratio"},
	{"wire.decode_us_per_job", "us"},
	{"wire.encode_report_us_per_job", "us"},
	{"ddl.parse_us_per_job", "us"},
	{"dbprog.parse_us_per_program", "us"},
	{"dbprog.format_us_per_program", "us"},
	{"dbprog.seed_ms_per_job", "ms"},
	{"fingerprint.us_per_job", "us"},
	{"plancache.pair_us_per_job", "us"},
	{"plancache.pair_hit_ratio", "ratio"},
	{"plancache.memo_hit_ratio", "ratio"},
	{"xform.classify_us", "us"},
	{"xform.migrate_ms_per_job", "ms"},
	{"xform.migrate_records_per_s", "1/s"},
	{"xform.hier_migrate_ms_per_job", "ms"},
	{"analyzer.us_per_program", "us"},
	{"analyzer.hazard_rate", "ratio"},
	{"convert.us_per_program", "us"},
	{"convert.auto_ratio", "ratio"},
	{"optimizer.us_per_converted_program", "us"},
	{"netstore.clone_ms_per_verified_program", "ms"},
	{"netstore.probe_ratio", "ratio"},
	{"hierstore.clone_ms_per_verified_program", "ms"},
	{"equiv.check_us_per_verified_program", "us"},
	{"equiv.equal_ratio", "ratio"},
	{"core.run_ms_per_job", "ms"},
	{"core.self_ms_per_job", "ms"},
	{"core.coverage", "ratio"},
	{"telemetry.overhead_pct", "%"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_job", "MiB"},
}

// coreLayers are the spans of the calls core makes on its uncached path;
// their sum, against the facade's run time, is core.coverage.
var coreLayers = []string{
	"plancache.pair", "xform.migrate", "xform.hier_migrate",
	"analyzer.analyze", "convert.convert", "optimizer.optimize", "dbprog.format",
	"netstore.clone", "hierstore.clone", "equiv.check",
}

// opCounts are the units an op's layer times are divided by, and the
// outcomes its ratios count.
type opCounts struct {
	programs, hazards, auto          int // every automatic program is formatted
	optimized                        int // network automatic programs
	netVerified, hierVerified, equal int
	probes, scans                    int64
	records                          int
	eventBytes, reportBytes          int64
	hop                              time.Duration // dispatch: coordinator minus direct
	fleet                            bool
	daemon                           bool
	run, traced                      time.Duration // facade untraced and traced
}

// sampleOp turns one op's self times and counts into per-layer samples.
func (l *layerSamples) sampleOp(self map[string]time.Duration, c *opCounts) {
	if c.daemon {
		l.add("serve.submit_ms", ms(self["serve.submit"]))
		l.add("serve.run_ms", ms(self["serve.run"]))
		l.add("serve.report_ms", ms(self["serve.report"]))
		l.add("serve.event_bytes_per_job", float64(c.eventBytes))
		l.add("serve.report_bytes_per_job", float64(c.reportBytes))
		l.add("wire.decode_us_per_job", us(self["wire.decode"]))
		l.add("wire.encode_report_us_per_job", us(self["wire.encode_report"]))
		l.add("ddl.parse_us_per_job", us(self["ddl.parse"]))
		l.add("dbprog.parse_us_per_program", per(us(self["dbprog.parse"]), c.programs))
		l.add("fingerprint.us_per_job", us(self["fingerprint"]))
	}
	if c.fleet {
		l.add("dispatch.hop_ms", ms(c.hop))
	}
	if d, ok := self["dbprog.seed"]; ok {
		l.add("dbprog.seed_ms_per_job", ms(d))
	}
	l.add("dbprog.format_us_per_program", per(us(self["dbprog.format"]), c.auto))
	l.add("plancache.pair_us_per_job", us(self["plancache.pair"]))
	l.add("xform.classify_us", us(self["xform.classify"]))
	if d, ok := self["xform.migrate"]; ok {
		l.add("xform.migrate_ms_per_job", ms(d))
		l.add("xform.migrate_records_per_s", float64(c.records)/d.Seconds())
	}
	if d, ok := self["xform.hier_migrate"]; ok {
		l.add("xform.hier_migrate_ms_per_job", ms(d))
	}
	l.add("analyzer.us_per_program", per(us(self["analyzer.analyze"]), c.programs))
	l.add("analyzer.hazard_rate", per(float64(c.hazards), c.programs))
	l.add("convert.us_per_program", per(us(self["convert.convert"]), c.programs))
	l.add("convert.auto_ratio", per(float64(c.auto), c.programs))
	l.add("optimizer.us_per_converted_program", per(us(self["optimizer.optimize"]), c.optimized))
	l.add("netstore.clone_ms_per_verified_program", per(ms(self["netstore.clone"]), c.netVerified))
	if c.probes+c.scans > 0 {
		l.add("netstore.probe_ratio", float64(c.probes)/float64(c.probes+c.scans))
	}
	l.add("hierstore.clone_ms_per_verified_program", per(ms(self["hierstore.clone"]), c.hierVerified))
	l.add("equiv.check_us_per_verified_program", per(us(self["equiv.check"]), c.netVerified+c.hierVerified))
	l.add("equiv.equal_ratio", per(float64(c.equal), c.netVerified+c.hierVerified))

	var layers time.Duration
	for _, name := range coreLayers {
		layers += self[name]
	}
	l.add("core.run_ms_per_job", ms(c.run))
	l.add("core.self_ms_per_job", ms(c.run-layers))
	l.add("core.coverage", float64(layers)/float64(c.run))
	l.add("telemetry.overhead_pct", 100*(float64(c.traced)-float64(c.run))/float64(c.run))
}

// medians reduces the samples to one value per metric, in layerMetrics
// order; a metric with no samples (its layer did not run in this
// workload) reads 0.
func (l *layerSamples) medians(t *table) {
	for _, m := range layerMetrics {
		v := l.vals[m.name]
		if len(v) == 0 {
			t.add(m.name, m.unit, 0, 0)
			continue
		}
		t.add(m.name, m.unit, median(v), len(v))
	}
}
