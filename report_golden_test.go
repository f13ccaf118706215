package progconv

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/schema"
)

// TestReportGoldenJSON pins the report documents' bytes: the verified
// 3-program Figure 4.3 conversion of the event golden, followed by the
// IMS study (§2.2) verified against its seed hierarchy. The daemon and
// the CLI share the report writer, so comparing them with each other
// cannot catch a writer change; this file can. Regenerate with
//
//	UPDATE_GOLDEN=1 go test -run ReportGolden .
func TestReportGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	network, err := Convert(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil,
		eventPrograms(t), WithParallelism(1), WithVerifyDB(eventDB(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeReportJSON(&buf, network); err != nil {
		t.Fatal(err)
	}
	entry, err := corpus.IMSReorder()
	if err != nil {
		t.Fatal(err)
	}
	study, err := ConvertJob(context.Background(), Job{Spec: HierSpec{Src: entry.Source, Dst: entry.Target, DB: entry.Seed()},
		Programs: entry.Programs()}, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeReportJSON(&buf, study); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "report.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report documents diverged from %s (set UPDATE_GOLDEN=1 to regenerate)\n--- got ---\n%s",
			golden, buf.String())
	}
}
