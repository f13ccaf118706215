// Package obs is the supervisor's observability substrate:
//
//   - the structured event log (event.go): typed Events through a Sink,
//     with a bounded RingSink and a nil-safe Emitter so uninstrumented
//     runs pay nothing. It is the pipeline's only recorder: a timed
//     run carries each stage attempt's duration on its stage-end
//     event;
//   - the Tally sink (tally.go), a plain fold of the event stream into
//     counters by disposition, hazard, rewrite, verdict, fault and
//     cache scope, plus the report-level data-plane totals;
//   - the per-stage Metrics summary (this file) embedded in a
//     conversion Report and rendered by `progconv convert -stats` and
//     cmd/exper.
//
// Rendering lives elsewhere: internal/wire encodes events as JSON
// lines, and internal/telemetry folds stage durations into the Metrics
// summary, builds span trees, and writes the Prometheus and Chrome
// trace formats. The package is stdlib-only and safe for concurrent
// use; emitting to a nil Emitter allocates nothing.
package obs

import (
	"fmt"
	"strings"
	"time"
)

// Stage identifies one Figure 4.1 pipeline box.
type Stage uint8

// The pipeline stages, in execution order.
const (
	StageAnalyze Stage = iota
	StageConvert
	StageOptimize
	StageGenerate
	StageVerify
	numStages
)

var stageNames = [numStages]string{
	"analyze", "convert", "optimize", "generate", "verify",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Stages returns every stage in execution order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// StageStats is one stage's aggregate across a run.
type StageStats struct {
	Stage Stage
	Count int64
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
	// Buckets counts attempts per latency bucket: 1µs·4ⁱ upper bounds,
	// then one unbounded overflow bucket.
	Buckets []int64
}

// Mean returns the average span duration (0 when nothing was recorded).
func (s StageStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Metrics is the run summary embedded in a conversion Report.
type Metrics struct {
	// Wall is the elapsed time of the run.
	Wall time.Duration
	// Programs counts the distinct programs that ran a stage.
	Programs int
	// ByStage holds per-stage aggregates in execution order; stages
	// that never ran have Count 0.
	ByStage []StageStats
}

// Stage returns the aggregate for one stage (zero stats if out of
// range).
func (m *Metrics) Stage(s Stage) StageStats {
	if m == nil || int(s) >= len(m.ByStage) {
		return StageStats{Stage: s}
	}
	return m.ByStage[s]
}

// sparkline renders a histogram as one glyph per occupied bucket range.
var sparks = []rune("▁▂▃▄▅▆▇█")

func sparkline(buckets []int64) string {
	lo, hi := -1, -1
	var peak int64
	for i, n := range buckets {
		if n > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if n > peak {
				peak = n
			}
		}
	}
	if lo < 0 {
		return ""
	}
	var b strings.Builder
	for i := lo; i <= hi; i++ {
		if buckets[i] == 0 {
			b.WriteRune(' ')
			continue
		}
		idx := int(buckets[i] * int64(len(sparks)-1) / peak)
		b.WriteRune(sparks[idx])
	}
	return b.String()
}

// String renders the summary as the -stats table.
func (m *Metrics) String() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "STAGE TIMINGS (wall %s, %d programs)\n",
		m.Wall.Round(time.Microsecond), m.Programs)
	fmt.Fprintf(&b, "%-10s %7s %12s %12s %12s %12s  %s\n",
		"stage", "spans", "total", "mean", "min", "max", "histogram")
	for _, st := range m.ByStage {
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %7d %12s %12s %12s %12s  %s\n",
			st.Stage, st.Count,
			st.Total.Round(time.Microsecond), st.Mean().Round(time.Microsecond),
			st.Min.Round(time.Microsecond), st.Max.Round(time.Microsecond),
			sparkline(st.Buckets))
	}
	b.WriteString("histogram buckets: 1µs·4ⁱ upper bounds (≤1µs, ≤4µs, ≤16µs, …; last bucket unbounded)\n")
	return b.String()
}
