package telemetry

// Histogram instruments, counters and gauges with the repository's
// only Prometheus text exporter. Bucket boundaries are fixed at
// construction and every registered series is rendered
// unconditionally (zero counts included), so scrapers never see
// series appear, disappear, or shift buckets between scrapes.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"progconv/internal/obs"
)

// LatencyBuckets returns the standard duration boundaries in seconds:
// 1µs·4ⁱ for i in [0, 16).
func LatencyBuckets() []float64 {
	out := make([]float64, 16)
	b := 1e-6
	for i := range out {
		out[i] = b
		b *= 4
	}
	return out
}

// CountBuckets returns the standard count boundaries: 4ⁱ for i in
// [0, 10) — 1, 4, 16, … 262144 — for per-job data-plane work counts.
func CountBuckets() []float64 {
	out := make([]float64, 10)
	b := 1.0
	for i := range out {
		out[i] = b
		b *= 4
	}
	return out
}

// series is one labeled histogram time series.
type series struct {
	label   string
	buckets []int64 // finite buckets; observations above the last bound
	sum     float64 // and the count make the implicit +Inf bucket
	count   int64
	min     float64
	max     float64
}

// Family is one histogram metric family: fixed bucket boundaries, any
// number of labeled series. Safe for concurrent Observe.
type Family struct {
	name, help, labelKey string
	bounds               []float64

	mu      sync.Mutex
	series  []*series
	byLabel map[string]*series
}

// Observe records one value into the labeled series, creating it on
// first use (pre-register scrape-critical labels at Family time so
// they export as zeros before the first observation). The label is ""
// for label-free families.
func (f *Family) Observe(label string, v float64) {
	f.mu.Lock()
	s := f.byLabel[label]
	if s == nil {
		s = f.register(label)
	}
	s.count++
	s.sum += v
	if s.count == 1 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	for i, b := range f.bounds {
		if v <= b {
			s.buckets[i]++
			break
		}
	}
	f.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (f *Family) ObserveDuration(label string, d time.Duration) {
	f.Observe(label, d.Seconds())
}

// register adds a series; the caller holds f.mu (or is Registry.Family
// before the family is published).
func (f *Family) register(label string) *series {
	s := &series{label: label, buckets: make([]int64, len(f.bounds))}
	f.series = append(f.series, s)
	f.byLabel[label] = s
	return s
}

// Count returns one series' observation count (0 when absent).
func (f *Family) Count(label string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.byLabel[label]; s != nil {
		return s.count
	}
	return 0
}

// gauge is one callback-valued gauge metric.
type gauge struct {
	name, help string
	fn         func() float64
}

// counterSeries is one labeled monotonic counter.
type counterSeries struct {
	label string
	n     int64
}

// Counters is one counter metric family: any number of labeled
// monotonic series, created on first Add or pre-registered so they
// export as zeros. Safe for concurrent use.
type Counters struct {
	name, help, labelKey string

	mu      sync.Mutex
	series  []*counterSeries
	byLabel map[string]*counterSeries
}

// Add increments the labeled series by delta, creating it on first
// use. The label is "" for label-free counters.
func (c *Counters) Add(label string, delta int64) {
	c.mu.Lock()
	s := c.byLabel[label]
	if s == nil {
		s = c.register(label)
	}
	s.n += delta
	c.mu.Unlock()
}

// Get returns one series' current value (0 when absent).
func (c *Counters) Get(label string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.byLabel[label]; s != nil {
		return s.n
	}
	return 0
}

// register adds a series; the caller holds c.mu (or is
// Registry.Counters before the family is published).
func (c *Counters) register(label string) *counterSeries {
	s := &counterSeries{label: label}
	c.series = append(c.series, s)
	c.byLabel[label] = s
	return s
}

func (c *Counters) writePrometheus(w io.Writer) error {
	c.mu.Lock()
	snaps := make([]counterSeries, 0, len(c.series))
	for _, s := range c.series {
		snaps = append(snaps, *s)
	}
	c.mu.Unlock()
	return writeCounter(w, c.name, c.help, c.labelKey, snaps)
}

// writeCounter renders one counter family: HELP and TYPE, then one
// sample per series in the given order, labelled unless labelKey is "".
func writeCounter(w io.Writer, name, help, labelKey string, series []counterSeries) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name); err != nil {
		return err
	}
	for _, s := range series {
		sel := ""
		if labelKey != "" {
			sel = fmt.Sprintf("{%s=%q}", labelKey, s.label)
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", name, sel, s.n); err != nil {
			return err
		}
	}
	return nil
}

// tallyFamilies names the Prometheus counter family behind each
// obs.Tally Snapshot family, in exposition order. A family with a
// label key collects every "key/label" entry, labels sorted for
// byte-stable output; one without renders the single "key" total,
// which Snapshot always carries, zero included.
var tallyFamilies = []struct{ key, name, help, labelKey string }{
	{"programs", "progconv_programs_total", "Programs by conversion disposition.", "disposition"},
	{"hazards", "progconv_hazards_total", "Hazard findings by kind.", "kind"},
	{"rewrites", "progconv_dml_rewrites_total", "DML statements rewritten by verb.", "verb"},
	{"verifications", "progconv_verifications_total", "Equivalence verdicts by result.", "result"},
	{"faults", "progconv_faults_total", "Resilience faults by kind (retry, panic, timeout).", "kind"},
	{"cache_hits", "progconv_cache_hits_total", "Conversion-cache hits by scope.", "scope"},
	{"cache_misses", "progconv_cache_misses_total", "Conversion-cache misses by scope.", "scope"},
	{"cache_evictions", "progconv_cache_evictions_total", "Conversion-cache LRU evictions by scope.", "scope"},
	{"dataplane/index_probes", "progconv_index_probes_total", "FIND requests answered by an exact-key index probe.", ""},
	{"dataplane/index_scans", "progconv_index_scans_total", "FIND requests answered by a full occurrence scan.", ""},
	{"dataplane/migration_fused_steps", "progconv_migration_fused_steps_total", "Migration steps executed inside fused single-pass runs.", ""},
	{"dataplane/migration_stepwise_steps", "progconv_migration_stepwise_steps_total", "Migration steps executed as their own full-database pass.", ""},
	{"dataplane/migration_shards", "progconv_migration_shards_total", "Shards the sharded migration rebuild passes fanned out into.", ""},
	{"dataplane/bulk_loaded_records", "progconv_bulk_loaded_records_total", "Records inserted through the bulk-load merge phase.", ""},
}

// writeTally renders an event tally as the tallyFamilies counters.
func writeTally(w io.Writer, t *obs.Tally) error {
	snap := t.Snapshot()
	for _, f := range tallyFamilies {
		var series []counterSeries
		if f.labelKey == "" {
			series = append(series, counterSeries{n: snap[f.key]})
		} else {
			for k, n := range snap {
				if label, ok := strings.CutPrefix(k, f.key+"/"); ok {
					series = append(series, counterSeries{label, n})
				}
			}
			sort.Slice(series, func(i, j int) bool { return series[i].label < series[j].label })
		}
		if err := writeCounter(w, f.name, f.help, f.labelKey, series); err != nil {
			return err
		}
	}
	return nil
}

// Registry holds an instrument set for one process: an event tally,
// histogram families, counter families and gauges, rendered together
// by WritePrometheus in that order. Families, counters and gauges
// render in registration order, series in label-registration order,
// so the exposition is byte-stable for a deterministic observation
// sequence.
type Registry struct {
	mu       sync.Mutex
	tally    *obs.Tally
	families []*Family
	counters []*Counters
	gauges   []gauge
}

// NewRegistry returns an empty instrument registry.
func NewRegistry() *Registry { return &Registry{} }

// Family registers a histogram family. labelKey is the label
// dimension ("" for a label-free family); bounds are the finite bucket
// upper bounds in ascending order; labels pre-registers series so they
// export before their first observation.
func (r *Registry) Family(name, help, labelKey string, bounds []float64, labels ...string) *Family {
	f := newFamily(name, help, labelKey, bounds, labels...)
	r.mu.Lock()
	r.families = append(r.families, f)
	r.mu.Unlock()
	return f
}

// newFamily builds an unregistered histogram family; see
// Registry.Family.
func newFamily(name, help, labelKey string, bounds []float64, labels ...string) *Family {
	f := &Family{
		name: name, help: help, labelKey: labelKey,
		bounds:  append([]float64(nil), bounds...),
		byLabel: map[string]*series{},
	}
	if len(labels) == 0 && labelKey == "" {
		labels = []string{""}
	}
	for _, l := range labels {
		f.register(l)
	}
	return f
}

// Tally registers the event tally whose counter families lead the
// exposition; a nil tally renders nothing.
func (r *Registry) Tally(t *obs.Tally) {
	r.mu.Lock()
	r.tally = t
	r.mu.Unlock()
}

// Counters registers a counter family. labelKey is the label
// dimension ("" for a label-free counter); labels pre-registers series
// so they export as zeros before their first Add.
func (r *Registry) Counters(name, help, labelKey string, labels ...string) *Counters {
	c := &Counters{
		name: name, help: help, labelKey: labelKey,
		byLabel: map[string]*counterSeries{},
	}
	if len(labels) == 0 && labelKey == "" {
		labels = []string{""}
	}
	for _, l := range labels {
		c.register(l)
	}
	r.mu.Lock()
	r.counters = append(r.counters, c)
	r.mu.Unlock()
	return c
}

// Gauge registers a callback-valued gauge, sampled at scrape time.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.mu.Lock()
	r.gauges = append(r.gauges, gauge{name, help, fn})
	r.mu.Unlock()
}

// snapshotFamilies copies the family list so rendering never holds the
// registry lock while calling into family locks.
func (r *Registry) snapshotFamilies() (*obs.Tally, []*Family, []*Counters, []gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tally, append([]*Family(nil), r.families...),
		append([]*Counters(nil), r.counters...),
		append([]gauge(nil), r.gauges...)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the tally, every registered family and every
// gauge in Prometheus text exposition format. All registered series
// are written unconditionally — including zero-count ones — so no time
// series ever disappears between scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	tally, families, counters, gauges := r.snapshotFamilies()
	if tally != nil {
		if err := writeTally(w, tally); err != nil {
			return err
		}
	}
	for _, f := range families {
		if err := f.writePrometheus(w); err != nil {
			return err
		}
	}
	for _, c := range counters {
		if err := c.writePrometheus(w); err != nil {
			return err
		}
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			g.name, g.help, g.name, g.name, formatFloat(g.fn())); err != nil {
			return err
		}
	}
	return nil
}

func (f *Family) writePrometheus(w io.Writer) error {
	f.mu.Lock()
	type snap struct {
		label   string
		buckets []int64
		sum     float64
		count   int64
	}
	snaps := make([]snap, 0, len(f.series))
	for _, s := range f.series {
		snaps = append(snaps, snap{s.label, append([]int64(nil), s.buckets...), s.sum, s.count})
	}
	f.mu.Unlock()

	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", f.name, f.help, f.name); err != nil {
		return err
	}
	for _, s := range snaps {
		sel := func(le string) string {
			if f.labelKey == "" {
				return fmt.Sprintf("{le=%q}", le)
			}
			return fmt.Sprintf("{%s=%q,le=%q}", f.labelKey, s.label, le)
		}
		plain := ""
		if f.labelKey != "" {
			plain = fmt.Sprintf("{%s=%q}", f.labelKey, s.label)
		}
		var cum int64
		for i, b := range f.bounds {
			cum += s.buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, sel(formatFloat(b)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, sel("+Inf"), s.count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, plain, formatFloat(s.sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, plain, s.count); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders one human-readable line per series — the
// /statusz histogram section.
func (r *Registry) WriteSummary(w io.Writer) {
	_, families, counters, gauges := r.snapshotFamilies()
	for _, f := range families {
		f.mu.Lock()
		for _, s := range f.series {
			name := f.name
			if f.labelKey != "" {
				name = fmt.Sprintf("%s{%s=%q}", f.name, f.labelKey, s.label)
			}
			mean := 0.0
			if s.count > 0 {
				mean = s.sum / float64(s.count)
			}
			fmt.Fprintf(w, "  %-60s count=%d mean=%s max=%s\n",
				name, s.count, formatFloat(mean), formatFloat(s.max))
		}
		f.mu.Unlock()
	}
	for _, c := range counters {
		c.mu.Lock()
		for _, s := range c.series {
			name := c.name
			if c.labelKey != "" {
				name = fmt.Sprintf("%s{%s=%q}", c.name, c.labelKey, s.label)
			}
			fmt.Fprintf(w, "  %-60s value=%d\n", name, s.n)
		}
		c.mu.Unlock()
	}
	for _, g := range gauges {
		fmt.Fprintf(w, "  %-60s value=%s\n", g.name, formatFloat(g.fn()))
	}
}

// Instruments is the standard progconv instrument set, registered
// identically by the daemon and the CLI so dashboards work against
// either front end.
type Instruments struct {
	// QueueWait is the admission-queue wait per job (daemon only; the
	// CLI has no queue and leaves it at zero).
	QueueWait *Family
	// JobDur is end-to-end job latency, runner pickup to report.
	JobDur *Family
	// Stage is per-program stage-attempt latency by stage name, fed
	// from stage-end events by StageSink.
	Stage *Family
	// Probes is the per-job data-plane FIND work count by resolution
	// ("probe" = exact-key index probe, "scan" = full occurrence scan).
	Probes *Family
}

// NewInstruments registers the standard families on r. Stage series
// are pre-registered for every pipeline stage so all five export from
// the first scrape.
func NewInstruments(r *Registry) *Instruments {
	return &Instruments{
		QueueWait: r.Family("progconv_queue_wait_seconds",
			"Time a job waited in the admission queue before a runner picked it up.",
			"", LatencyBuckets()),
		JobDur: r.Family("progconv_job_duration_seconds",
			"End-to-end job latency from runner pickup to finished report.",
			"", LatencyBuckets()),
		Stage: r.Family("progconv_stage_latency_seconds",
			"Per-program pipeline stage attempt latency.",
			"stage", LatencyBuckets(), stageLabels()...),
		Probes: r.Family("progconv_dataplane_probe_count",
			"Per-job data-plane FIND lookups by resolution (index probe vs full scan).",
			"op", CountBuckets(), "probe", "scan"),
	}
}

// stageLabels returns every stage name in execution order.
func stageLabels() []string {
	out := make([]string, 0, len(obs.Stages()))
	for _, st := range obs.Stages() {
		out = append(out, st.String())
	}
	return out
}

// stageSink folds stage-end events into the stage latency family.
type stageSink struct{ fam *Family }

func (s stageSink) Emit(ev obs.Event) {
	if ev.Kind == obs.EvStageEnd {
		s.fam.ObserveDuration(ev.Stage.String(), ev.Dur)
	}
}

// StageSink returns an event sink feeding the stage histogram; compose
// it with the run's other sinks via MultiSink.
func (in *Instruments) StageSink() obs.Sink { return stageSink{in.Stage} }

// ObserveDataPlane records one finished job's data-plane counters.
func (in *Instruments) ObserveDataPlane(dp obs.DataPlane) {
	in.Probes.Observe("probe", float64(dp.IndexProbes))
	in.Probes.Observe("scan", float64(dp.IndexScans))
}

// RunMetrics folds one run's stage-end durations into the per-stage
// summary a Report carries: a stage latency family like the standard
// instruments' Stage, the distinct programs that ran a stage, and the
// run's wall time. It is an obs.Sink; the supervisor installs one per
// timed Run.
type RunMetrics struct {
	start time.Time
	stage *Family

	mu    sync.Mutex
	progs map[string]bool
}

// NewRunMetrics starts the run's wall clock.
func NewRunMetrics() *RunMetrics {
	return &RunMetrics{
		start: time.Now(),
		stage: newFamily("", "", "stage", LatencyBuckets(), stageLabels()...),
		progs: map[string]bool{},
	}
}

// Emit implements obs.Sink.
func (m *RunMetrics) Emit(ev obs.Event) {
	if ev.Kind != obs.EvStageEnd {
		return
	}
	m.stage.ObserveDuration(ev.Stage.String(), ev.Dur)
	m.mu.Lock()
	m.progs[ev.Prog] = true
	m.mu.Unlock()
}

// Metrics freezes the fold into the Report summary. Each stage's
// buckets are the family's finite buckets plus the overflow bucket. A
// nil receiver (an untimed run) yields nil.
func (m *RunMetrics) Metrics() *obs.Metrics {
	if m == nil {
		return nil
	}
	out := &obs.Metrics{Wall: time.Since(m.start)}
	m.mu.Lock()
	out.Programs = len(m.progs)
	m.mu.Unlock()
	m.stage.mu.Lock()
	defer m.stage.mu.Unlock()
	for _, st := range obs.Stages() {
		s := m.stage.byLabel[st.String()]
		stats := obs.StageStats{Stage: st, Count: s.count, Total: duration(s.sum),
			Min: duration(s.min), Max: duration(s.max)}
		overflow := s.count
		for _, n := range s.buckets {
			overflow -= n
		}
		stats.Buckets = append(append([]int64(nil), s.buckets...), overflow)
		out.ByStage = append(out.ByStage, stats)
	}
	return out
}

// duration converts seconds back to a Duration, rounding to the
// nanosecond the observations carried.
func duration(sec float64) time.Duration { return time.Duration(math.Round(sec * 1e9)) }
