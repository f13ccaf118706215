package ddl

import (
	"os"
	"path/filepath"
	"testing"

	"progconv/internal/schema"
)

// FuzzDDLFixedPoint: Parse never panics, and the canonical DDL of a
// parsed network or hierarchical schema re-parses to the same text.
// Schema and pair fingerprints hash that rendering, so a rendering that
// drifted under re-parse would key one pair two ways.
//
// Plain go test runs the seeds; go test -fuzz FuzzDDLFixedPoint
// explores from them.
func FuzzDDLFixedPoint(f *testing.F) {
	files, err := filepath.Glob("../../../examples/*/*.ddl")
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no example schemas to seed from")
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(figure43)
	for _, n := range []*schema.Network{schema.SchoolNetwork(), schema.CompanyV1(), schema.CompanyV2(), schema.EmpDeptNetwork()} {
		f.Add(n.DDL())
	}
	f.Add(schema.EmpDeptHierarchy().DDL())
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := Parse(src)
		if err != nil {
			return
		}
		var text, again string
		switch {
		case parsed.Network != nil:
			text = parsed.Network.DDL()
			n, err := ParseNetwork(text)
			if err != nil {
				t.Fatalf("network rendering does not re-parse: %v\n%s", err, text)
			}
			again = n.DDL()
		case parsed.Hierarchy != nil:
			text = parsed.Hierarchy.DDL()
			h, err := ParseHierarchy(text)
			if err != nil {
				t.Fatalf("hierarchy rendering does not re-parse: %v\n%s", err, text)
			}
			again = h.DDL()
		}
		if again != text {
			t.Fatalf("rendering is not a fixed point:\n%s\nre-rendered as\n%s", text, again)
		}
	})
}
