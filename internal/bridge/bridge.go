// Package bridge is the bridge-program strategy of §2.1.2: "the source
// application program's access requirements are supported by dynamically
// reconstructing from the target database that portion of the source
// database needed", with "a reverse mapping ... to reflect updates" and
// differential-file bookkeeping (Severance & Lohman) to decide what must
// be retranslated.
//
// The unmodified source program runs against the reconstruction; the
// strategy's cost is the reconstruction itself, which is why §2.1.2
// expects "a significant increase in processing requirements".
package bridge

import (
	"context"
	"fmt"

	"progconv/internal/dbprog"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

// Bridge mediates between source-schema programs and a restructured
// database.
type Bridge struct {
	srcSchema *schema.Network
	plan      *xform.Plan // source → target
	inverse   *xform.Plan // target → source (the reverse mapping)
	target    *netstore.DB

	// reconstruction is the materialized source-shaped database; version
	// stamps play the role of the differential file: the reconstruction
	// is reused while the target is unchanged.
	reconstruction *netstore.DB
	targetVersion  int
	reconVersion   int
}

// New builds a bridge for programs written against src, over a target
// database produced by plan. The plan must be invertible — exactly
// Housel's restriction, which the paper notes "restricts the scope of the
// conversion problem that can be handled".
func New(src *schema.Network, target *netstore.DB, plan *xform.Plan) (*Bridge, error) {
	inv, err := plan.InversePlan(src)
	if err != nil {
		return nil, fmt.Errorf("bridge: plan has no reverse mapping: %w", err)
	}
	return &Bridge{srcSchema: src, plan: plan, inverse: inv, target: target}, nil
}

// Target returns the current restructured database.
func (b *Bridge) Target() *netstore.DB { return b.target }

// Reconstruct materializes the source-shaped database from the target if
// the cached reconstruction is stale.
func (b *Bridge) Reconstruct() (*netstore.DB, error) {
	if b.reconstruction != nil && b.reconVersion == b.targetVersion {
		return b.reconstruction, nil
	}
	recon, _, err := b.inverse.Migrate(context.TODO(), b.target, xform.MigrateOptions{})
	if err != nil {
		return nil, fmt.Errorf("bridge: reconstruction: %w", err)
	}
	b.reconstruction = recon
	b.reconVersion = b.targetVersion
	return recon, nil
}

// Run executes an unmodified source program through the bridge: the
// needed source database is reconstructed, the program runs against it,
// and if the program wrote to the database the changes are retranslated
// forward into the target ("each simulated source database segment that
// has changed must be retranslated").
func (b *Bridge) Run(p *dbprog.Program, cfg dbprog.Config) (*dbprog.Trace, error) {
	recon, err := b.Reconstruct()
	if err != nil {
		return nil, err
	}
	writes := dbprog.Writes(p)
	runDB := recon
	if writes {
		runDB = recon.Clone()
	}
	cfg.Net = runDB
	trace, err := dbprog.Run(p, cfg)
	if err != nil {
		return trace, err
	}
	if writes {
		newTarget, _, err := b.plan.Migrate(context.TODO(), runDB, xform.MigrateOptions{})
		if err != nil {
			return trace, fmt.Errorf("bridge: retranslation: %w", err)
		}
		b.target = newTarget
		b.targetVersion++
	}
	return trace, nil
}
