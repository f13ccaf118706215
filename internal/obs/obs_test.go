package obs

import (
	"strings"
	"testing"
	"time"
)

func TestMetricsString(t *testing.T) {
	m := &Metrics{Wall: 3 * time.Millisecond, Programs: 1, ByStage: []StageStats{
		{Stage: StageAnalyze},
		{Stage: StageGenerate, Count: 3, Total: 60 * time.Microsecond,
			Min: 10 * time.Microsecond, Max: 30 * time.Microsecond,
			Buckets: []int64{0, 0, 1, 2, 0}},
	}}
	s := m.String()
	for _, want := range []string{"STAGE TIMINGS (wall 3ms, 1 programs)", "generate",
		"20µs", "histogram", "▄█", "histogram buckets: 1µs·4ⁱ"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "analyze") {
		t.Errorf("empty stage rendered:\n%s", s)
	}
	if (*Metrics)(nil).String() != "" {
		t.Error("nil metrics rendered a table")
	}
}

func TestStageString(t *testing.T) {
	if StageOptimize.String() != "optimize" {
		t.Errorf("optimize = %q", StageOptimize)
	}
	if got := Stage(200).String(); got != "stage(200)" {
		t.Errorf("unknown stage = %q", got)
	}
	if len(Stages()) != int(numStages) {
		t.Errorf("Stages() = %v", Stages())
	}
}
