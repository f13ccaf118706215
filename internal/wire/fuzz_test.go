package wire

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzJobSpec: DecodeJobSpec accepts exactly the submission bodies the
// encoding/json oracle accepts and yields the same spec for them,
// DeepEqual down to nil against empty slices; a decoded spec then
// validates or not without panicking.
//
// Plain go test runs the seeds: the shapes of the CI daemon and fleet
// jobs in both models, and a body for each rule DecodeJobSpec copies
// from encoding/json. go test -fuzz FuzzJobSpec explores from them.
func FuzzJobSpec(f *testing.F) {
	for _, body := range jobSpecSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAgainstOracle(t, body)
	})
}

// checkDecodeAgainstOracle fails t unless DecodeJobSpec and the
// encoding/json oracle agree on body.
func checkDecodeAgainstOracle(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := oracleDecodeJobSpec(body)
	got, err := DecodeJobSpec(body)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("DecodeJobSpec error %v, oracle error %v, for body %q", err, wantErr, clip(body))
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("DecodeJobSpec yields\n%#v\nthe oracle\n%#v\nfor body %q", got, want, clip(body))
	case err == nil:
		_ = got.Validate()
	}
}

// clip shortens a body for a failure message.
func clip(b []byte) []byte {
	if len(b) > 300 {
		return append(b[:300:300], "..."...)
	}
	return b
}

// jobSpecSeeds returns the bodies FuzzJobSpec starts from and
// TestDecodeJobSpecMatchesOracle replays.
func jobSpecSeeds(tb testing.TB) [][]byte {
	read := func(path string) string {
		b, err := os.ReadFile("../../examples/" + path)
		if err != nil {
			tb.Fatal(err)
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
	badInject := network
	badInject.Options = JobOptions{Inject: "bogus"}
	var seeds [][]byte
	for _, spec := range []JobSpec{network, hier, fleet, hierFleet, every, badInject} {
		body, err := json.Marshal(spec)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	for _, body := range []string{
		`{}`, `{"v":2}`, `{"model":"relational"}`, `{"options":{"timeout":"soon"}}`,
		// Repeated keys: the last scalar wins; programs and options
		// decode into what is already there, and programs truncates
		// and regrows through its stale capacity.
		`{"source_ddl":"a","source_ddl":"b","v":1,"v":2}`,
		`{"programs":[{"source":"a"},{"source":"b"}],"programs":[{}]}`,
		`{"programs":[{"source":"a"},{"source":"b"}],"programs":[{}],"programs":[{},{}]}`,
		`{"programs":[{"source":"a"}],"programs":[]}`,
		`{"programs":[{"source":"a","source":"b"},null,{"source":null}]}`,
		`{"options":{"retries":2,"fail_on":"manual","accept_order":true},"options":{"retries":1}}`,
		// Folded keys, escaped keys and unknown keys.
		`{"SOURCE_DDL":"x","Target_Ddl":"y","PROGRAMS":[{"SOURCE":"p"}],"OPTIONS":{"Accept_Order":true,"ReTries":1}}`,
		"{\"\u017fource_ddl\":\"long s\",\"\\u0076\":1,\"v\\u0000\":2,\"\":3}",
		`{"x":{"y":[1,-2.5e+3,0.5E-1,true,false,null,"s\n\u00e9",{"z":[]}]},"v":1,"w":[[],{}]}`,
		// null: a scalar or options stays, programs empties to nil,
		// and a top-level null is the zero spec.
		`{"model":"m","model":null,"options":null,"v":1,"v":null,"programs":[{"source":"a"}],"programs":null}`,
		`null`, ` null`, `null xyz`, `nul`, `nulL`,
		// The bytes after the top-level value are not read.
		`{"v":1} garbage`, `{"v":1}{"v":2}`, `{}]`, "{}\x00",
		// Strings: invalid UTF-8 and lone surrogates become U+FFFD,
		// pairs combine, raw control bytes fail.
		"{\"source_ddl\":\"a\xffb\xc3\",\"target_ddl\":\"\xed\xa0\x80\xe2\x82\"}",
		`{"model":"\ud800x\udc00\ud83d\ude00\ud800\u0041\uDBFF\uDFFF\ud800\ud800"}`,
		`{"model":"\/\b\f\n\r\t\"\\"}`,
		"{\"model\":\"a\x01b\"}", "{\"model\":\"a\tb\"}", `{"model":"\'"}`, `{"model":"\u12"}`, `{"model":"\u12g4"}`,
		// Integers.
		`{"v":1.0}`, `{"v":1e2}`, `{"v":-0}`, `{"v":01}`, `{"v":-}`, `{"v":1.}`, `{"v":.5}`, `{"v":+1}`,
		`{"v":9223372036854775807}`, `{"v":9223372036854775808}`, `{"v":-9223372036854775808}`,
		`{"v":-9223372036854775809}`, `{"options":{"retries":99999999999999999999}}`,
		// Type mismatches and syntax errors.
		`{"v":"1"}`, `{"v":true}`, `{"programs":{}}`, `{"programs":["a"]}`, `{"programs":[[]]}`,
		`{"options":[]}`, `{"options":{"accept_order":1}}`, `{"model":5}`, `"str"`, `[]`, `1`, `true`,
		`{"v":1,}`, `{"v" 1}`, `{"v":1 "model":""}`, `[`, ``, "  \n", `{"a":tru}`, `{"a":[1,]}`, `{,}`,
		"\xef\xbb\xbf{}", `{"v":1`, `{"model":"abc`,
	} {
		seeds = append(seeds, []byte(body))
	}
	return seeds
}
