// IMS reorder: the Mehl & Wang study from §2.2 — "a change in the
// hierarchical order of an IMS structure" — end to end: the DEPT→EMP
// hierarchy is inverted to EMP→DEPT, the database is migrated, and the
// corpus.IMSReorder inventory's old-order calls run against the new
// order through the command substitution rules.
//
//	go run ./examples/imsreorder
package main

import (
	"context"
	"fmt"
	"log"

	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/hierstore"
	"progconv/internal/value"
	"progconv/internal/xform"
)

func main() {
	// The named corpus entry: the DEPT→EMP pair, its seed population,
	// and the study's program inventory.
	entry, err := corpus.IMSReorder()
	if err != nil {
		log.Fatal(err)
	}
	db := entry.Seed()
	fmt.Println("source hierarchy (DEPT → EMP):")
	fmt.Print(db.DumpSequence())

	// The study's old-order program, written against DEPT→EMP: the
	// tenured-employee sweep (corpus kind hier-gnp).
	var oldProgram *dbprog.Program
	for _, m := range entry.Members {
		if m.Kind == corpus.HierGNP {
			oldProgram = m.Program
		}
	}
	before, err := dbprog.Run(oldProgram, dbprog.Config{Hier: db.Clone()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nold program on the old order:")
	fmt.Print(before)

	// The Mehl & Wang transformation: promote EMP to the root. The
	// corpus target schema is this same promotion applied to the source.
	tr := xform.HierReorder{Promote: "EMP"}
	plan := &xform.HierPlan{Steps: []xform.HierReorder{tr}}
	reordered, warnings, _, err := plan.Migrate(context.Background(), db, xform.MigrateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range warnings {
		fmt.Println("migration warning:", w)
	}
	fmt.Println("\nreordered hierarchy (EMP → DEPT):")
	fmt.Print(reordered.DumpSequence())

	// The old program's calls, run through the substitution rules. A
	// parent-targeted path rewrites directly; a child-targeted path with a
	// parent qualification needs the emulated command sequence — the very
	// complication §2.1.2 charges to the emulation strategy.
	sess := hierstore.NewSession(reordered)
	oldPath := []hierstore.SSA{
		hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D2")),
		hierstore.Q("EMP", "YEAR-OF-SERVICE", hierstore.GT, value.Of(10)),
	}
	rec, st := tr.EmulateGU(sess, "DEPT", oldPath)
	fmt.Println("\nold-order call DEPT(D#='D2'), EMP(YOS>10) via command substitution:")
	fmt.Printf("  status %v, answer %s\n", st, rec.MustGet("ENAME"))

	pairs, err := tr.ReorderedValueEqual(db, reordered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmigration fidelity: all %d (department, employee) pairs preserved\n", pairs)
}
