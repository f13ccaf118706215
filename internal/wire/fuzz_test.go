package wire

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzJobSpec: a submission body decodes the way the daemon's and the
// coordinator's submit handlers decode it, then validates, and neither
// step panics. A spec that validates survives the coordinator's forward
// path: re-encoded for the worker, it decodes to the same spec and
// validates again.
//
// Plain go test runs the seeds, the shapes of the CI daemon and fleet
// jobs in both models; go test -fuzz FuzzJobSpec explores from them.
func FuzzJobSpec(f *testing.F) {
	read := func(path string) string {
		b, err := os.ReadFile("../../examples/" + path)
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	network := JobSpec{
		V:         Version,
		SourceDDL: read("company/company-v1.ddl"),
		TargetDDL: read("company/company-v2.ddl"),
		Programs:  []ProgramSpec{{Source: read("company/roster.prog")}},
		Options: JobOptions{Parallelism: 1, VerifyInit: `PROGRAM INIT-DB DIALECT NETWORK.
MOVE 'MACHINERY' TO DIV-NAME IN DIV.
MOVE 'DETROIT' TO DIV-LOC IN DIV.
STORE DIV.
END PROGRAM.`},
	}
	hier := JobSpec{
		V:         Version,
		Model:     ModelHierarchical,
		SourceDDL: read("imsreorder/personnel-v1.ddl"),
		TargetDDL: read("imsreorder/personnel-v2.ddl"),
		Options:   JobOptions{Parallelism: 8, VerifyInit: read("imsreorder/seed.prog")},
	}
	for _, p := range []string{"deptmgr", "empbyid", "tenured"} {
		hier.Programs = append(hier.Programs, ProgramSpec{Source: read("imsreorder/" + p + ".prog")})
	}
	fleet := network
	fleet.Options = JobOptions{Parallelism: 1, Inject: "delay=2s@*/analyze"}
	hierFleet := hier
	hierFleet.Options.Parallelism = 1
	every := network
	every.Options = JobOptions{Parallelism: 2, MigrateParallel: 2, AcceptOrder: true,
		Timeout: "1m", StageTimeout: "10s", AnalystTimeout: "1s", Retries: 1,
		OnFailure: "budget:2", FailOn: "manual", Deadline: "30s", Inject: "transient@*/convert"}
	for _, spec := range []JobSpec{network, hier, fleet, hierFleet, every} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{`{}`, `{"v":2}`, `{"model":"relational"}`, `{"options":{"timeout":"soon"}}`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		forwarded, err := json.Marshal(&spec)
		if err != nil {
			t.Fatalf("a valid spec does not re-encode: %v", err)
		}
		var again JobSpec
		if err := json.NewDecoder(bytes.NewReader(forwarded)).Decode(&again); err != nil {
			t.Fatalf("a forwarded spec does not decode: %v\n%s", err, forwarded)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("forwarding changed the spec:\n%+v\nbecame\n%+v", spec, again)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("a forwarded spec no longer validates: %v", err)
		}
	})
}
