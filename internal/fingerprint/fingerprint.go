// Package fingerprint computes canonical content hashes for the
// conversion pipeline's cacheable inputs: schemas, transformation
// plans, and programs. A hash identifies content, not identity — two
// structurally identical schemas parsed from different sources share a
// fingerprint — which is what lets the pair-scoped conversion cache
// (internal/plancache) be shared safely across runs, supervisors, and
// processes that happen to reload the same inputs.
//
// Every hash is SHA-256 over domain || len(part) || part …: the domain
// tag written raw, then each part behind its 8-byte big-endian length.
// The length prefixes keep concatenated parts apart; the domains in use
// are prefix-free (no tag is a prefix of another), which keeps hashes
// of different kinds apart. The serializations are the repository's
// existing canonical renderings: Figure 4.3 DDL for schemas, the plan's
// Describe listing, and the Program Generator's source text for
// programs, rendered straight into the hashed buffer.
package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"progconv/internal/dbprog"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

// Hash is a lowercase-hex SHA-256 digest of a canonical serialization.
type Hash string

// Short returns the leading 12 hex digits — the display form used in
// audit trails and cache events, long enough to be unambiguous in any
// realistic cache and short enough to read.
func (h Hash) Short() string {
	if len(h) <= 12 {
		return string(h)
	}
	return string(h[:12])
}

// sum hashes domain-separated, length-prefixed parts.
func sum(domain string, parts ...string) Hash {
	bp := begin(domain)
	b := *bp
	for _, p := range parts {
		b = binary.BigEndian.AppendUint64(b, uint64(len(p)))
		b = append(b, p...)
	}
	return digest(bp, b)
}

// maxPooled bounds the buffers returned to bufPool, so one huge input
// does not pin its buffer for the life of the process.
const maxPooled = 64 << 10

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// begin takes a buffer from the pool and writes the domain tag into it.
func begin(domain string) *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = append((*bp)[:0], domain...)
	return bp
}

// digest hashes b, returns the buffer behind it to the pool and
// hex-encodes on the stack, so the Hash string is the one allocation.
func digest(bp *[]byte, b []byte) Hash {
	d := sha256.Sum256(b)
	if cap(b) <= maxPooled {
		*bp = b
		bufPool.Put(bp)
	}
	var x [2 * sha256.Size]byte
	hex.Encode(x[:], d[:])
	return Hash(x[:])
}

// Schema fingerprints a network schema via its canonical DDL rendering.
// A nil schema has the (stable) empty fingerprint domain.
func Schema(n *schema.Network) Hash {
	if n == nil {
		return sum("schema")
	}
	return sum("schema", n.DDL())
}

// Plan fingerprints a transformation plan via its Describe listing,
// which names every step and its parameters in order. A nil plan has a
// stable empty fingerprint.
func Plan(p *xform.Plan) Hash {
	if p == nil {
		return sum("plan")
	}
	return sum("plan", p.Describe())
}

// Program fingerprints a parsed program via the Program Generator's
// canonical source rendering (name, dialect, and statements): the same
// bytes as sum("program", dbprog.Format(p)), rendered into the hashed
// buffer behind a length placeholder that is filled in afterwards,
// since the length precedes the text it counts.
func Program(p *dbprog.Program) Hash {
	bp := begin("program")
	b := append(*bp, 0, 0, 0, 0, 0, 0, 0, 0)
	start := len(b)
	b = dbprog.AppendFormat(b, p)
	binary.BigEndian.PutUint64(b[start-8:start], uint64(len(b)-start))
	return digest(bp, b)
}

// Sum hashes arbitrary domain-separated, length-prefixed parts — the
// escape hatch for callers with canonical serializations of their own
// (the dispatch coordinator scores rendezvous placements this way).
// Choose a domain no other caller uses, and one that is neither a
// prefix nor an extension of a domain in use.
func Sum(domain string, parts ...string) Hash {
	return sum(domain, parts...)
}

// Hierarchy fingerprints a hierarchical (DL/I) schema via its canonical
// DDL rendering. The domain differs from Schema's, so a network schema
// and a hierarchy can never share a fingerprint even if some rendering
// coincidence made their DDL texts equal.
func Hierarchy(h *schema.Hierarchy) Hash {
	if h == nil {
		return sum("hierschema")
	}
	return sum("hierschema", h.DDL())
}

// HierPlan fingerprints a hierarchical transformation plan via its
// Describe listing, mirroring Plan for the network model.
func HierPlan(p *xform.HierPlan) Hash {
	if p == nil {
		return sum("hierplan")
	}
	return sum("hierplan", p.Describe())
}

// PairKey identifies one conversion pair — the unit the pair-scoped
// cache is keyed on. With an explicit plan the pair is (source schema,
// plan) and dst contributes nothing (it may be nil); with a nil plan
// the pair is (source schema, target schema), since classification is
// a pure function of the two.
func PairKey(src, dst *schema.Network, plan *xform.Plan) Hash {
	if plan != nil {
		return sum("pair", string(Schema(src)), "plan", string(Plan(plan)))
	}
	return sum("pair", string(Schema(src)), "schema", string(Schema(dst)))
}

// HierPairKey identifies one hierarchical conversion pair. It mirrors
// PairKey's shape — (source, plan) when a plan is given, (source,
// target) otherwise — under a distinct domain, so network and
// hierarchical pairs occupy disjoint key spaces by construction.
func HierPairKey(src, dst *schema.Hierarchy, plan *xform.HierPlan) Hash {
	if plan != nil {
		return sum("hierpair", string(Hierarchy(src)), "plan", string(HierPlan(plan)))
	}
	return sum("hierpair", string(Hierarchy(src)), "schema", string(Hierarchy(dst)))
}
