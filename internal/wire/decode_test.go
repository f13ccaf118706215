package wire

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/schema"
)

// benchSpec is a job shaped like the benchmark's: the corpus inventory
// of 200 programs at PeriodProfile(seed) over the COMPANY pair.
func benchSpec(tb testing.TB, seed int64) []byte {
	p := corpus.PeriodProfile(seed)
	p.Programs = 200
	members, err := corpus.Programs(p)
	if err != nil {
		tb.Fatal(err)
	}
	spec := JobSpec{V: Version, SourceDDL: schema.CompanyV1().DDL(), TargetDDL: schema.CompanyV2().DDL(),
		Options: JobOptions{Parallelism: 1}}
	for _, m := range members {
		spec.Programs = append(spec.Programs, ProgramSpec{Source: m.Source})
	}
	body, err := json.Marshal(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeJobSpecMatchesOracle: DecodeJobSpec and encoding/json
// agree on the benchmark-shaped jobs, on every example job's inputs,
// on every FuzzJobSpec seed, and at encoding/json's nesting limit.
func TestDecodeJobSpecMatchesOracle(t *testing.T) {
	bodies := jobSpecSeeds(t)
	for seed := int64(1); seed <= 3; seed++ {
		bodies = append(bodies, benchSpec(t, seed))
	}
	// Every example directory as one job: its DDL files as the pair
	// and its programs as the inventory.
	dirs, err := filepath.Glob("../../examples/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		ddls, _ := filepath.Glob(filepath.Join(dir, "*.ddl"))
		progs, _ := filepath.Glob(filepath.Join(dir, "*.prog"))
		if len(ddls) < 2 {
			continue
		}
		read := func(path string) string {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		spec := JobSpec{V: Version, SourceDDL: read(ddls[0]), TargetDDL: read(ddls[1])}
		for _, p := range progs {
			spec.Programs = append(spec.Programs, ProgramSpec{Source: read(p)})
		}
		body, err := json.MarshalIndent(spec, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	// The top-level object is depth 1: 9,999 nested arrays inside it
	// are the deepest body encoding/json accepts.
	for _, n := range []int{maxDepth - 1, maxDepth} {
		deep := `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"v":1}`
		bodies = append(bodies, []byte(deep))
	}
	for i, body := range bodies {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkDecodeAgainstOracle(t, body) })
	}
}

// TestDecodeJobSpecEveryField: every field of JobSpec, ProgramSpec and
// JobOptions decodes. The spec is filled by reflection, each field with
// a value of its own, so a field added to the wire structs but not to
// DecodeJobSpec fails here instead of being skipped as an unknown key.
func TestDecodeJobSpecEveryField(t *testing.T) {
	var spec JobSpec
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.String:
			n++
			v.SetString(fmt.Sprint("s", n))
		case reflect.Int:
			n++
			v.SetInt(int64(n))
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("no test value for a %s field", v.Type())
		}
	}
	fill(reflect.ValueOf(&spec).Elem())
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJobSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("DecodeJobSpec yields\n%#v\nfor\n%#v", got, spec)
	}
	checkDecodeAgainstOracle(t, body)
}

// TestDecodeJobSpecAllocs: decoding the benchmark's 200-program body
// allocates once per decoded string (202 of them) plus the programs
// slice's growth and the string scratch buffer: 218 allocations, where
// encoding/json took 432.
func TestDecodeJobSpecAllocs(t *testing.T) {
	body := benchSpec(t, 1)
	n := testing.AllocsPerRun(20, func() {
		if _, err := DecodeJobSpec(body); err != nil {
			t.Fatal(err)
		}
	})
	if n > 218 {
		t.Fatalf("decoding a 200-program job allocated %.0f times, want at most 218", n)
	}
}
