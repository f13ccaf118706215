package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"progconv"
	"progconv/client"
	"progconv/internal/analyzer"
	"progconv/internal/convert"
	"progconv/internal/dbprog"
	"progconv/internal/dispatch"
	"progconv/internal/equiv"
	"progconv/internal/fingerprint"
	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/optimizer"
	"progconv/internal/plancache"
	"progconv/internal/schema"
	"progconv/internal/schema/ddl"
	"progconv/internal/serve"
	"progconv/internal/telemetry"
	"progconv/internal/wire"
	"progconv/internal/xform"
)

// defaultSeconds is how long one run measures unless --seconds says
// otherwise: BENCHMARK.json's run_seconds.
const defaultSeconds = 28

// workload is one traffic mix: its client count, how many jobs one
// round runs on one freshly set-up system, how many ops the traced pass
// runs at defaultSeconds, and how it builds its inputs.
type workload struct {
	name      string
	clients   int
	roundJobs int
	traceOps  int
	prepare   func(seed int64) (harness, error)
}

var workloads = []workload{
	// 256 distinct schema pairs, 4x the 64-pair cache, so every pair and
	// program memo misses and each job pays the whole pipeline.
	{name: "convert-cold", clients: 2, roundJobs: 25, traceOps: 50, prepare: prepareConvertCold},
	// 8 pairs that fit the workers' caches: what remains is parsing, wire
	// encoding, event streaming, cache probes and the dispatch hop.
	{name: "fleet-warm", clients: 2, roundJobs: 25, traceOps: 50, prepare: prepareFleetWarm},
	// 4 cached pairs with a seeded database: seeding, migration, clones
	// and equivalence checks, the work no cache removes.
	{name: "verify", clients: 2, roundJobs: 25, traceOps: 30, prepare: prepareVerify},
	// Library ConvertJobs over a 1,005-record network database and a
	// 528-segment hierarchy: the data plane of both models, no HTTP.
	{name: "migrate", clients: 1, roundJobs: 50, traceOps: 30, prepare: prepareMigrate},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// harness holds one run's seeded inputs and sets up the system under
// test from them.
type harness interface {
	setup(ctx context.Context) (rig, error)
	// checking is the time spent so far computing reference reports,
	// which set-up time leaves out.
	checking() time.Duration
}

// rig is a running system under test.
type rig interface {
	job(ctx context.Context, i int) (time.Duration, error)
	// primes is how many jobs fill the system's caches before warm-up.
	primes() int
	// tracePass runs ops traced ops starting at job first, adding one
	// sample per op to ls.
	tracePass(ctx context.Context, t *tracer, first, ops int, ls *layerSamples) error
	close()
}

// ---- daemon and fleet workloads ----

// daemonHarness is the inputs of a workload that submits pads of one
// base spec over HTTP: the base spec, with its reference reports.
type daemonHarness struct {
	*refTable
	pads []int // fixed pads; nil for the fleet, which picks them per set-up
	seed int64
}

func prepareConvertCold(seed int64) (harness, error) {
	base, err := baseSpec(seed)
	if err != nil {
		return nil, err
	}
	// 256 pads, 4x the daemon cache's default 64 pairs: cycling through
	// them evicts every pair (and its memos) before it comes round again.
	h := &daemonHarness{refTable: newRefTable(base), seed: seed,
		pads: rand.New(rand.NewSource(seed)).Perm(256)}
	return h, h.fill(h.pads)
}

func prepareVerify(seed int64) (harness, error) {
	base, err := baseSpec(seed)
	if err != nil {
		return nil, err
	}
	base.Options.VerifyInit = verifyInit(seed)
	h := &daemonHarness{refTable: newRefTable(base), seed: seed,
		pads: rand.New(rand.NewSource(seed)).Perm(1000)[:4]}
	return h, h.fill(h.pads)
}

func prepareFleetWarm(seed int64) (harness, error) {
	base, err := baseSpec(seed)
	if err != nil {
		return nil, err
	}
	return &daemonHarness{refTable: newRefTable(base), seed: seed}, nil
}

func (h *daemonHarness) setup(ctx context.Context) (rig, error) {
	if h.pads == nil {
		return h.setupFleet()
	}
	d := startDaemon(2)
	r := &daemonRig{front: newClient(d.url), caches: []*progconv.Cache{d.cache}, stops: []func(){d.stop}}
	r.use(h, h.pads)
	return r, nil
}

// fleetPads is how many schema pairs the fleet workload cycles through.
const fleetPads = 8

// setupFleet starts two single-runner workers with their own caches and
// a coordinator over them. It picks pads that rendezvous-rank half onto
// each worker, so the load split does not depend on which ephemeral
// ports the workers got.
func (h *daemonHarness) setupFleet() (rig, error) {
	r := &daemonRig{owner: map[int]*client.Client{}}
	var urls []string
	for i := 0; i < 2; i++ {
		d := startDaemon(1)
		r.stops = append(r.stops, d.stop)
		r.caches = append(r.caches, d.cache)
		urls = append(urls, d.url)
	}
	co := dispatch.New(dispatch.Config{Workers: urls})
	coTS := httptest.NewServer(co.Handler())
	r.stops = append([]func(){func() { coTS.Close(); co.Close() }}, r.stops...)
	r.front = newClient(coTS.URL)

	owners := map[string]*client.Client{urls[0]: newClient(urls[0]), urls[1]: newClient(urls[1])}
	var byOwner [2][]int
	for k := int(h.seed % 10000); len(byOwner[0]) < fleetPads/2 || len(byOwner[1]) < fleetPads/2; k++ {
		spec := withPad(h.base, k)
		pair, err := dispatch.PairFor(&spec)
		if err != nil {
			r.close()
			return nil, err
		}
		w := 0
		if dispatch.Rank(pair, urls)[0] == urls[1] {
			w = 1
		}
		if len(byOwner[w]) < fleetPads/2 {
			byOwner[w] = append(byOwner[w], k)
			r.owner[k] = owners[urls[w]]
		}
	}
	// Interleave, so consecutive jobs from the two clients usually land
	// on different workers.
	var pads []int
	for i := 0; i < fleetPads/2; i++ {
		pads = append(pads, byOwner[0][i], byOwner[1][i])
	}
	for _, k := range pads {
		if _, err := h.get(k); err != nil {
			r.close()
			return nil, err
		}
	}
	r.use(h, pads)
	return r, nil
}

// daemon is one serve daemon on a loopback listener.
type daemon struct {
	url   string
	cache *progconv.Cache
	stop  func()
}

func startDaemon(runners int) daemon {
	cache := progconv.NewCache(0)
	srv := serve.New(serve.Config{Runners: runners, Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	return daemon{url: ts.URL, cache: cache, stop: func() {
		ts.Close()
		srv.Drain(context.Background())
	}}
}

// newClient returns an SDK client that does not retry, so a refused
// submission counts as a failed job instead of hiding in a retry.
func newClient(url string) *client.Client {
	return client.New(url, client.WithRetries(0, 0))
}

// daemonRig drives a daemon, or a coordinator over two workers.
type daemonRig struct {
	pads   []int
	specs  []wire.JobSpec // specs[n] is the base spec with pads[n]
	bodies [][]byte       // specs[n] as the daemon receives it
	refs   *refTable
	front  *client.Client
	owner  map[int]*client.Client // fleet: each pad's rendezvous owner
	caches []*progconv.Cache
	stops  []func()
}

func (r *daemonRig) use(h *daemonHarness, pads []int) {
	r.pads, r.refs = pads, h.refTable
	for _, k := range pads {
		spec := withPad(h.base, k)
		body, _ := json.Marshal(&spec) // a JobSpec always marshals
		r.specs = append(r.specs, spec)
		r.bodies = append(r.bodies, body)
	}
}

// cachePairs is the pair capacity of progconv.NewCache(0), the cache
// every daemon in the benchmark runs with.
const cachePairs = 64

// primes runs each pad once when the pads fit the cache, so measured
// jobs find their pair warm; pads that do not fit are meant to miss.
func (r *daemonRig) primes() int {
	if len(r.pads) <= cachePairs {
		return len(r.pads)
	}
	return 0
}

func (r *daemonRig) close() {
	for _, stop := range r.stops {
		stop()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func (r *daemonRig) job(ctx context.Context, i int) (time.Duration, error) {
	tm, err := r.send(ctx, r.front, i%len(r.pads))
	return tm.reported.Sub(tm.start), err
}

// surfaceTiming splits one job's round trip through the v1 API.
type surfaceTiming struct {
	start, submitted, streamed, reported time.Time
	eventBytes, reportBytes              int64
}

// send submits the spec of pads[n] through cli, follows the job's event
// stream to its end, fetches the report and checks it against the
// pad's reference. Completion is timed from the end of the stream, not
// by polling the job's status, so latency is not rounded up to a poll
// interval.
func (r *daemonRig) send(ctx context.Context, cli *client.Client, n int) (surfaceTiming, error) {
	var tm surfaceTiming
	want, err := r.refs.get(r.pads[n])
	if err != nil {
		return tm, err
	}
	tm.start = time.Now()
	st, err := cli.Submit(ctx, &r.specs[n])
	if err != nil {
		return tm, fmt.Errorf("submit: %w", err)
	}
	tm.submitted = time.Now()
	stream, err := cli.Events(ctx, st.ID, false)
	if err != nil {
		return tm, fmt.Errorf("events: %w", err)
	}
	tm.eventBytes, err = io.Copy(io.Discard, stream)
	stream.Close()
	if err != nil {
		return tm, fmt.Errorf("events: %w", err)
	}
	tm.streamed = time.Now()
	body, status, err := cli.Report(ctx, st.ID)
	tm.reported = time.Now()
	tm.reportBytes = int64(len(body))
	switch {
	case err != nil:
		return tm, fmt.Errorf("report: %w", err)
	case status != http.StatusOK:
		return tm, fmt.Errorf("report served with HTTP %d", status)
	case !bytes.Equal(body, want):
		return tm, fmt.Errorf("pad %d: %s served a report that differs from the facade's reference", r.pads[n], cli.BaseURL())
	}
	return tm, nil
}

func cacheStats(caches []*progconv.Cache) plancache.Stats {
	var s plancache.Stats
	for _, c := range caches {
		st := c.Stats()
		s.PairHits += st.PairHits
		s.PairMisses += st.PairMisses
		s.AnalysisHits += st.AnalysisHits
		s.AnalysisMisses += st.AnalysisMisses
		s.ConversionHits += st.ConversionHits
		s.ConversionMisses += st.ConversionMisses
		s.CodegenHits += st.CodegenHits
		s.CodegenMisses += st.CodegenMisses
	}
	return s
}

// routed returns the coordinator's per-worker routed counters.
func (r *daemonRig) routed(ctx context.Context) (map[string]int64, error) {
	list, err := r.front.Workers(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, w := range list.Workers {
		out[w.URL] = w.Routed
	}
	return out, nil
}

func (r *daemonRig) tracePass(ctx context.Context, t *tracer, first, ops int, ls *layerSamples) error {
	before := cacheStats(r.caches)
	var routed0 map[string]int64
	expected := map[string]int64{}
	if r.owner != nil {
		var err error
		if routed0, err = r.routed(ctx); err != nil {
			return err
		}
	}
	counts := make([]*opCounts, ops)
	for op := 0; op < ops; op++ {
		c, err := r.traceOp(ctx, t, op, first+op)
		if err != nil {
			return fmt.Errorf("traced op %d: %w", op, err)
		}
		counts[op] = c
		if r.owner != nil {
			expected[r.owner[r.pads[(first+op)%len(r.pads)]].BaseURL()]++
		}
	}
	self := t.selfTimes()
	for op, c := range counts {
		ls.sampleOp(self[op], c)
	}

	after := cacheStats(r.caches)
	if d := after.PairHits - before.PairHits + after.PairMisses - before.PairMisses; d > 0 {
		ls.add("plancache.pair_hit_ratio", float64(after.PairHits-before.PairHits)/float64(d))
	}
	hits := after.AnalysisHits + after.ConversionHits + after.CodegenHits -
		before.AnalysisHits - before.ConversionHits - before.CodegenHits
	misses := after.AnalysisMisses + after.ConversionMisses + after.CodegenMisses -
		before.AnalysisMisses - before.ConversionMisses - before.CodegenMisses
	if hits+misses > 0 {
		ls.add("plancache.memo_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if r.owner != nil {
		routed1, err := r.routed(ctx)
		if err != nil {
			return err
		}
		// A routed job landed on its rendezvous owner unless its worker
		// took more than the pads it owns account for.
		var matched, total int64
		for url, want := range expected {
			matched += min(want, routed1[url]-routed0[url])
			total += want
		}
		ls.add("dispatch.affinity_ratio", float64(matched)/float64(total))
	}
	return nil
}

// traceOp sends job i through the surface with client-side spans (and,
// for the fleet, straight to its owner as well, alternating which goes
// first), replays it in process through the layers core calls, and then
// runs it through the facade untraced and traced.
func (r *daemonRig) traceOp(ctx context.Context, t *tracer, op, i int) (*opCounts, error) {
	n := i % len(r.pads)
	want, err := r.refs.get(r.pads[n])
	if err != nil {
		return nil, err
	}
	c := &opCounts{daemon: true, fleet: r.owner != nil}
	root := t.open(op, -1, "op")
	defer t.close(root)

	var viaFront, viaOwner time.Duration
	surface := func() error {
		id := t.open(op, root, "surface")
		tm, err := r.send(ctx, r.front, n)
		t.close(id)
		if err != nil {
			return err
		}
		t.record(op, id, "serve.submit", tm.start, tm.submitted)
		t.record(op, id, "serve.run", tm.submitted, tm.streamed)
		t.record(op, id, "serve.report", tm.streamed, tm.reported)
		c.eventBytes, c.reportBytes = tm.eventBytes, tm.reportBytes
		viaFront = tm.reported.Sub(tm.start)
		return nil
	}
	if r.owner == nil {
		err = surface()
	} else {
		err = alternate(op, surface, func() error {
			id := t.open(op, root, "dispatch.direct")
			tm, err := r.send(ctx, r.owner[r.pads[n]], n)
			t.close(id)
			viaOwner = tm.reported.Sub(tm.start)
			return err
		})
		c.hop = viaFront - viaOwner
	}
	if err != nil {
		return nil, err
	}

	// The surface call left megabytes of garbage; collect it now so its
	// collection does not land in the in-process spans.
	runtime.GC()
	job, err := replaySpec(t, op, root, r.bodies[n])
	if err != nil {
		return nil, err
	}
	opts := []progconv.Option{progconv.WithParallelism(1), progconv.WithMigrationParallelism(1)}
	if job.db != nil {
		opts = append(opts, progconv.WithVerifyDB(job.db))
	}
	var report *progconv.Report
	err = alternate(op, func() error {
		return replayNetwork(ctx, t, op, root, job.src, job.dst, job.programs, job.db, c)
	}, func() error {
		var err error
		c.run, c.traced, err = facadeRuns(t, op, root, func(traced bool) error {
			if !traced {
				report, err = progconv.Convert(ctx, job.src, job.dst, nil, job.programs, opts...)
				return err
			}
			_, err := progconv.Convert(ctx, job.src, job.dst, nil, job.programs, withTelemetry(opts)...)
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	t.span(op, root, "wire.encode_report", func() { err = progconv.EncodeReportJSON(&buf, report) })
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return nil, fmt.Errorf("pad %d: facade report at parallelism 1 differs from the reference", r.pads[n])
	}
	return c, nil
}

// alternate runs a then b on even ops and b then a on odd ones, so
// neither always inherits the other's garbage and cache state.
func alternate(op int, a, b func() error) error {
	if op%2 == 1 {
		a, b = b, a
	}
	if err := a(); err != nil {
		return err
	}
	return b()
}

// facadeRuns times run untraced ("core.run") and traced
// ("core.run_traced"), in alternating order.
func facadeRuns(t *tracer, op, root int, run func(traced bool) error) (plain, traced time.Duration, err error) {
	err = alternate(op, func() error {
		var err error
		plain = t.span(op, root, "core.run", func() { err = run(false) })
		return err
	}, func() error {
		var err error
		traced = t.span(op, root, "core.run_traced", func() { err = run(true) })
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("facade: %w", err)
	}
	return plain, traced, nil
}

// withTelemetry adds the observers the daemon attaches to every job: an
// event log retaining every event, the counter tally, the stage
// histogram sink, per-stage metrics and a trace builder.
func withTelemetry(opts []progconv.Option) []progconv.Option {
	inst := telemetry.NewInstruments(telemetry.NewRegistry())
	return append(opts[:len(opts):len(opts)],
		progconv.WithMetrics(),
		progconv.WithEventSink(progconv.MultiSink(&eventLog{}, progconv.NewTally(), inst.StageSink())),
		progconv.WithTraceSink(progconv.NewTraceBuilder(progconv.DeriveTraceID("bench"), "bench")),
	)
}

// eventLog retains every event, as the daemon's per-job hub does.
type eventLog struct {
	mu     sync.Mutex
	events []progconv.Event
}

func (l *eventLog) Emit(ev progconv.Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// replayedJob is what the in-process replay parsed and seeded, reused by
// the facade runs that follow it.
type replayedJob struct {
	src, dst *schema.Network
	programs []*dbprog.Program
	db       *netstore.DB
}

// replaySpec replays the daemon's handling of one submitted body before
// core sees it: decode, parse, seed, and the cache keys.
func replaySpec(t *tracer, op, parent int, body []byte) (*replayedJob, error) {
	var spec wire.JobSpec
	var err error
	t.span(op, parent, "wire.decode", func() {
		if err = json.Unmarshal(body, &spec); err == nil {
			err = spec.Validate()
		}
	})
	if err != nil {
		return nil, err
	}
	job := &replayedJob{}
	t.span(op, parent, "ddl.parse", func() { job.src, err = ddl.ParseNetwork(spec.SourceDDL) })
	if err != nil {
		return nil, err
	}
	t.span(op, parent, "ddl.parse", func() { job.dst, err = ddl.ParseNetwork(spec.TargetDDL) })
	if err != nil {
		return nil, err
	}
	t.span(op, parent, "dbprog.parse", func() {
		for _, p := range spec.Programs {
			var prog *dbprog.Program
			if prog, err = dbprog.Parse(p.Source); err != nil {
				return
			}
			job.programs = append(job.programs, prog)
		}
	})
	if err != nil {
		return nil, err
	}
	if spec.Options.VerifyInit != "" {
		t.span(op, parent, "dbprog.seed", func() {
			var init *dbprog.Program
			if init, err = dbprog.Parse(spec.Options.VerifyInit); err == nil {
				job.db, err = seedDB(job.src, init)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	// The keys the daemon's cache path computes for every job.
	t.span(op, parent, "fingerprint", func() {
		fingerprint.PairKey(job.src, job.dst, nil)
		for _, p := range job.programs {
			fingerprint.Program(p)
		}
	})
	return job, nil
}

// replayNetwork replays core's uncached network path for one job:
// classify (standalone), pair build, migration, and per program
// analyze → convert → optimize → generate → clone + verify.
func replayNetwork(ctx context.Context, t *tracer, op, parent int, src, dst *schema.Network,
	programs []*dbprog.Program, db *netstore.DB, c *opCounts) error {
	var err error
	t.span(op, parent, "xform.classify", func() { _, err = xform.Classify(src, dst) })
	if err != nil {
		return err
	}
	var pair *plancache.Pair
	t.span(op, parent, "plancache.pair", func() { pair, err = plancache.BuildPair(src, dst, nil) })
	if err != nil {
		return err
	}
	var target *netstore.DB
	var p0, s0 int64
	if db != nil {
		t.span(op, parent, "xform.migrate", func() {
			target, _, err = pair.Plan.Migrate(ctx, db, xform.MigrateOptions{Parallelism: 1})
		})
		if err != nil {
			return err
		}
		c.records += db.Len()
		p0, s0 = indexStats(db, target)
	}
	for _, p := range programs {
		var abs *analyzer.Abstract
		t.span(op, parent, "analyzer.analyze", func() { abs = analyzer.Analyze(ctx, p, pair.Src) })
		var res *convert.Result
		t.span(op, parent, "convert.convert", func() { res, err = convert.ConvertPrepared(ctx, abs, pair.Src, pair.Rewriters) })
		if err != nil {
			return err
		}
		c.count(abs, res)
		if !res.Auto {
			continue
		}
		var opt *dbprog.Program
		t.span(op, parent, "optimizer.optimize", func() { opt, _ = optimizer.OptimizeWith(ctx, res.Program, pair.Target, pair.Cost) })
		t.span(op, parent, "dbprog.format", func() { dbprog.Format(opt) })
		c.optimized++
		if db == nil {
			continue
		}
		var a, b *netstore.DB
		t.span(op, parent, "netstore.clone", func() { a = db.Clone() })
		t.span(op, parent, "netstore.clone", func() { b = target.Clone() })
		var v equiv.Verdict
		t.span(op, parent, "equiv.check", func() {
			v = equiv.Check(ctx, p, dbprog.Config{Net: a}, opt, dbprog.Config{Net: b})
		})
		c.netVerified++
		if v.Equal {
			c.equal++
		}
	}
	if db != nil {
		p1, s1 := indexStats(db, target)
		c.probes += p1 - p0
		c.scans += s1 - s0
	}
	return nil
}

// indexStats sums the FIND probe and scan counters of a source database
// and its migrated target; clones share their origin's counters.
func indexStats(src, target *netstore.DB) (probes, scans int64) {
	p0, s0 := src.IndexStatsOf().Snapshot()
	p1, s1 := target.IndexStatsOf().Snapshot()
	return p0 + p1, s0 + s1
}

// count tallies one program's analysis and conversion outcome.
func (c *opCounts) count(abs *analyzer.Abstract, res *convert.Result) {
	c.programs++
	if len(abs.Issues) > 0 {
		c.hazards++
	}
	if res.Auto {
		c.auto++
	}
}

// replayHier replays core's uncached hierarchical path for one job. The
// hierarchical optimizer is an identity pass, so there is no optimize
// call to time.
func replayHier(ctx context.Context, t *tracer, op, parent int, src, dst *schema.Hierarchy,
	programs []*dbprog.Program, db *hierstore.DB, c *opCounts) error {
	var err error
	t.span(op, parent, "xform.classify", func() { _, err = xform.ClassifyHier(src, dst) })
	if err != nil {
		return err
	}
	var pair *plancache.HierPair
	t.span(op, parent, "plancache.pair", func() { pair, err = plancache.BuildHierPair(src, dst, nil) })
	if err != nil {
		return err
	}
	var target *hierstore.DB
	t.span(op, parent, "xform.hier_migrate", func() {
		target, _, _, err = pair.Plan.Migrate(ctx, db, xform.MigrateOptions{Parallelism: 1})
	})
	if err != nil {
		return err
	}
	for _, p := range programs {
		var abs *analyzer.Abstract
		t.span(op, parent, "analyzer.analyze", func() { abs = analyzer.Analyze(ctx, p, nil) })
		var res *convert.Result
		t.span(op, parent, "convert.convert", func() { res, err = convert.ConvertHierAnalyzed(ctx, abs, pair.Src, pair.Plan) })
		if err != nil {
			return err
		}
		c.count(abs, res)
		if !res.Auto {
			continue
		}
		t.span(op, parent, "dbprog.format", func() { dbprog.Format(res.Program) })
		var a, b *hierstore.DB
		t.span(op, parent, "hierstore.clone", func() { a = db.Clone() })
		t.span(op, parent, "hierstore.clone", func() { b = target.Clone() })
		var v equiv.Verdict
		t.span(op, parent, "equiv.check", func() {
			v = equiv.Check(ctx, p, dbprog.Config{Hier: a}, res.Program, dbprog.Config{Hier: b})
		})
		c.hierVerified++
		if v.Equal {
			c.equal++
		}
	}
	return nil
}

// ---- library workload ----

// libHarness holds the migrate workload's seed and its reference: the
// first batch's encoded reports.
type libHarness struct {
	seed int64

	mu  sync.Mutex
	ref []byte
}

func prepareMigrate(seed int64) (harness, error) {
	return &libHarness{seed: seed}, nil
}

func (h *libHarness) checking() time.Duration { return 0 }

// setup builds the batch's two databases from the seed: that is the
// migrate workload's whole set-up.
func (h *libHarness) setup(ctx context.Context) (rig, error) {
	jobs, err := libJobs(h.seed)
	if err != nil {
		return nil, err
	}
	return &libRig{h: h, jobs: jobs}, nil
}

type libRig struct {
	h    *libHarness
	jobs []progconv.Job
}

func (r *libRig) primes() int { return 0 }
func (r *libRig) close()      {}

func (r *libRig) job(ctx context.Context, i int) (time.Duration, error) {
	start := time.Now()
	reports, err := progconv.ConvertJobs(ctx, r.jobs)
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	return lat, r.check(reports)
}

// check compares a batch's reports with the run's first batch, after
// checking that first batch's dispositions and verdicts.
func (r *libRig) check(reports []*progconv.Report) error {
	got, err := encodeReports(reports)
	if err != nil {
		return err
	}
	r.h.mu.Lock()
	defer r.h.mu.Unlock()
	if r.h.ref == nil {
		if err := checkLibReports(reports); err != nil {
			return fmt.Errorf("first batch: %w", err)
		}
		r.h.ref = got
	}
	if !bytes.Equal(got, r.h.ref) {
		return fmt.Errorf("batch reports differ from the first batch's")
	}
	return nil
}

func (r *libRig) tracePass(ctx context.Context, t *tracer, first, ops int, ls *layerSamples) error {
	net := r.jobs[0].Spec.(progconv.NetworkSpec)
	hier := r.jobs[1].Spec.(progconv.HierSpec)
	counts := make([]*opCounts, ops)
	for op := 0; op < ops; op++ {
		c := &opCounts{}
		counts[op] = c
		root := t.open(op, -1, "op")
		var reports []*progconv.Report
		var err error
		t.span(op, root, "library", func() { reports, err = progconv.ConvertJobs(ctx, r.jobs) })
		if err == nil {
			err = r.check(reports)
		}
		runtime.GC() // as in daemonRig.traceOp
		opts := []progconv.Option{progconv.WithParallelism(1), progconv.WithMigrationParallelism(1)}
		if err == nil {
			err = alternate(op, func() error {
				if err := replayNetwork(ctx, t, op, root, net.Src, net.Dst, r.jobs[0].Programs, net.DB, c); err != nil {
					return err
				}
				return replayHier(ctx, t, op, root, hier.Src, hier.Dst, r.jobs[1].Programs, hier.DB, c)
			}, func() error {
				var err error
				c.run, c.traced, err = facadeRuns(t, op, root, func(traced bool) error {
					if !traced {
						reports, err = progconv.ConvertJobs(ctx, r.jobs, opts...)
						return err
					}
					_, err := progconv.ConvertJobs(ctx, r.jobs, withTelemetry(opts)...)
					return err
				})
				return err
			})
		}
		if err == nil {
			err = r.check(reports)
		}
		t.close(root)
		if err != nil {
			return fmt.Errorf("traced op %d: %w", op, err)
		}
	}
	self := t.selfTimes()
	for op, c := range counts {
		ls.sampleOp(self[op], c)
	}
	return nil
}
