// Package db is the engine facade: a catalog of tables and registered
// models, SQL execution (DDL, DML, queries) and the wiring that lowers the
// MODEL JOIN syntax onto the native ModelJoin operator with the right
// compute device. It corresponds to the "Actian Vector with our integrated
// operators" system of the paper's evaluation, in library form.
package db

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"indbml/internal/core/modeljoin"
	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/plan"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/flight"
	"indbml/internal/infersched"
	"indbml/internal/metrics"
	"indbml/internal/nn"
	"indbml/internal/telemetry"
	"indbml/internal/trace"
)

// Options configure a Database.
type Options struct {
	// DefaultPartitions applies to tables created without a PARTITIONS
	// clause. The paper's experiments use 12.
	DefaultPartitions int
	// Parallelism caps concurrent partition plans (0 = one per partition).
	Parallelism int
	// GPU overrides the simulated GPU configuration.
	GPU device.GPUConfig
	// ModelCacheEntries bounds the cross-query model artifact cache: built
	// model matrices are kept across queries, keyed on (model, table
	// version, device), so repeat MODEL JOINs skip the build phase.
	// 0 or a negative value selects the default (32).
	ModelCacheEntries int
	// FlightRecorderSize bounds the always-on query flight recorder ring
	// (system.queries / system.query_operators). 0 or a negative value
	// selects the default (flight.DefaultSize).
	FlightRecorderSize int
}

// Router intercepts parsed statements for distributed execution. A
// coordinator installs one (SetRouter); the facade consults it after parsing
// and before local planning, so routed statements still flow through the
// flight recorder, tracing, EXPLAIN ANALYZE and the serving layer unchanged.
//
// RouteSelect returns (op, true, nil) when the statement was planned for
// distributed execution (op is the coordinator-side merge tree, typically a
// RemoteExchange fan-in), (nil, false, nil) to fall through to local
// planning, or (nil, true, err) for a routed statement that failed to plan.
//
// RouteExec mirrors this for DDL/DML: handled=true means the router took
// care of it (forwarding, scattering) and err is its outcome; handled=false
// falls through to local execution.
type Router interface {
	RouteSelect(ctx context.Context, sel *sql.SelectStmt, text string) (exec.Operator, bool, error)
	RouteExec(ctx context.Context, stmt sql.Stmt, text string) (bool, error)
}

// Database is an in-process analytical database instance.
type Database struct {
	mu       sync.RWMutex
	tables   map[string]*storage.Table
	models   map[string]*relmodel.Meta
	virtuals map[string]storage.VirtualTable

	// router, when set, intercepts statements for distributed execution.
	router Router

	opts Options
	cpu  *device.CPU
	gpu  *device.GPU

	// modelCache is the cross-query artifact cache every MODEL JOIN's model
	// comes from.
	modelCache *modelCache
	// flight is the always-on query flight recorder and statement-stats
	// store: every statement passes through it.
	flight *flight.Recorder
	// sched is the batched inference scheduler every MODEL JOIN forward
	// pass goes through.
	sched *infersched.Scheduler
	// metrics is the one registry every component of this engine — and the
	// server or coordinator built over it — registers its collectors on.
	metrics *metrics.Registry
	// tel samples metrics into history and evaluates the CREATE ALERT
	// rules; it ticks while a host (server, shell) has started it.
	tel *telemetry.Sampler
}

// Open creates an empty database with its observability wired: the
// metrics registry and the collectors of the model cache, flight recorder,
// inference scheduler and Go runtime; the telemetry sampler (not started);
// and every system table.
func Open(opts Options) *Database {
	if opts.DefaultPartitions <= 0 {
		opts.DefaultPartitions = 1
	}
	gpuCfg := opts.GPU
	if gpuCfg.PCIeBandwidth == 0 {
		gpuCfg = device.DefaultGPUConfig()
	}
	reg := metrics.NewRegistry()
	d := &Database{
		tables:   make(map[string]*storage.Table),
		models:   make(map[string]*relmodel.Meta),
		virtuals: make(map[string]storage.VirtualTable),
		opts:     opts,
		cpu:      device.NewCPU(),
		gpu:      device.NewGPU(gpuCfg),
		flight:   flight.NewRecorder(opts.FlightRecorderSize),
		metrics:  reg,
	}
	cacheEntries := opts.ModelCacheEntries
	if cacheEntries <= 0 {
		cacheEntries = 32
	}
	d.modelCache = newModelCache(cacheEntries)
	reg.NewGaugeFunc("vectordb_model_cache_hits_total", "Model artifact cache hits.",
		func() float64 { return float64(d.ModelCacheStats().Hits) })
	reg.NewGaugeFunc("vectordb_model_cache_misses_total", "Model artifact cache misses.",
		func() float64 { return float64(d.ModelCacheStats().Misses) })
	reg.NewGaugeFunc("vectordb_model_cache_evictions_total", "Model artifact cache evictions.",
		func() float64 { return float64(d.ModelCacheStats().Evictions) })
	reg.NewGaugeFunc("vectordb_model_cache_entries", "Model artifact cache resident entries.",
		func() float64 { return float64(d.ModelCacheStats().Entries) })
	reg.NewGaugeFunc("vectordb_flight_recorder_capacity", "Flight recorder ring capacity.",
		func() float64 { return float64(d.flight.Capacity()) })
	reg.NewGaugeFunc("vectordb_flight_queries_recorded_total", "Statements published to the flight recorder since start.",
		func() float64 { return float64(d.flight.Recorded()) })
	d.sched = infersched.New(reg)
	metrics.RegisterRuntime(reg)
	d.tel = telemetry.New(reg)
	for _, vt := range []storage.VirtualTable{
		flight.QueriesTable(d.flight),
		flight.OperatorsTable(d.flight),
		flight.ActiveTable(d.flight),
		flight.StatementStatsTable(d.flight),
		storage.NewVirtualTable("system.model_cache", modelCacheSchema, d.fillModelCache),
		storage.NewVirtualTable("system.inference_batches", inferBatchesSchema, d.fillInferBatches),
		// A histogram spike in system.metrics carries the exemplar query ID
		// to drill into system.queries / system.query_operators with SQL.
		flight.MetricsTable(reg),
		telemetry.HistoryTable(d.tel),
		telemetry.LatencyTable(d.tel),
		telemetry.AlertsTable(d.tel),
	} {
		d.RegisterVirtualTable(vt)
	}
	return d
}

// InferSched returns the batched inference scheduler.
func (d *Database) InferSched() *infersched.Scheduler { return d.sched }

// Metrics returns the engine's metrics registry: system.metrics, the
// telemetry history and the METRICS / HTTP exposition page all read it.
func (d *Database) Metrics() *metrics.Registry { return d.metrics }

// Telemetry returns the engine's telemetry sampler. A host that wants
// history and alert evaluation over time starts it (Start) and stops it
// when done; Tick samples once.
func (d *Database) Telemetry() *telemetry.Sampler { return d.tel }

// FlightRecorder returns the always-on query flight recorder.
func (d *Database) FlightRecorder() *flight.Recorder { return d.flight }

// Kill cancels the in-flight statement with the given flight-recorder query
// ID — running mid-scan, parked in an admission queue, or waiting for an
// inference pass. It errors when the ID names no active
// statement. The victim unwinds with a cancellation error at its next
// context check; KILL returns as soon as cancellation is delivered, without
// waiting for the unwind.
func (d *Database) Kill(id uint64) error {
	return d.flight.Kill(id)
}

// SetRouter installs a statement router (a distributed coordinator). Call
// before serving traffic; a nil router restores purely local execution.
func (d *Database) SetRouter(r Router) { d.router = r }

// RouterStatus returns the router's one-line fleet summary ("" when no
// router is installed or it offers none) — the STATUS "shards:" line.
func (d *Database) RouterStatus() string {
	if sl, ok := d.router.(interface{ StatusLine() string }); ok {
		return sl.StatusLine()
	}
	return ""
}

// RegisterVirtualTable adds (or replaces) a virtual system table. Open
// registers every engine table; the server adds system.sessions, and the
// coordinator system.shards plus fleet-wide replacements of engine tables.
func (d *Database) RegisterVirtualTable(vt storage.VirtualTable) {
	d.mu.Lock()
	d.virtuals[strings.ToLower(vt.Name())] = vt
	d.mu.Unlock()
}

// UnregisterVirtualTable removes a virtual table registration (used by the
// coordinator's temp tables backing partial-aggregate finalization).
func (d *Database) UnregisterVirtualTable(name string) {
	d.mu.Lock()
	delete(d.virtuals, strings.ToLower(name))
	d.mu.Unlock()
}

// VirtualTable resolves a registered virtual table by name.
func (d *Database) VirtualTable(name string) (storage.VirtualTable, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	vt, ok := d.virtuals[strings.ToLower(name)]
	return vt, ok
}

// ModelCacheStats returns the artifact cache counters.
func (d *Database) ModelCacheStats() ModelCacheStats { return d.modelCache.stats() }

// CPU returns the host compute device.
func (d *Database) CPU() *device.CPU { return d.cpu }

// GPU returns the simulated GPU device (for experiment accounting).
func (d *Database) GPU() *device.GPU { return d.gpu }

// RegisterTable adds a pre-built table to the catalog, replacing any
// existing table of the same name.
func (d *Database) RegisterTable(t *storage.Table) {
	key := strings.ToLower(t.Name)
	d.mu.Lock()
	d.tables[key] = t
	d.mu.Unlock()
	d.modelCache.invalidateModel(key)
}

// Table resolves a table by name.
func (d *Database) Table(name string) (*storage.Table, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("db: table %q does not exist", name)
	}
	return t, nil
}

// RegisterModel exports a trained model into a model table and records its
// metadata in the catalog (Sec. 5.5: the DBMS knows the table is a model).
func (d *Database) RegisterModel(m *nn.Model, opts relmodel.ExportOptions) (*relmodel.Meta, error) {
	tbl, meta, err := relmodel.Export(m, opts)
	if err != nil {
		return nil, err
	}
	key := strings.ToLower(tbl.Name)
	d.mu.Lock()
	d.tables[key] = tbl
	d.models[key] = meta
	d.mu.Unlock()
	d.modelCache.invalidateModel(key)
	return meta, nil
}

// ModelMeta resolves a registered model's metadata.
func (d *Database) ModelMeta(name string) (*relmodel.Meta, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	meta, ok := d.models[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("db: %q is not a registered model", name)
	}
	return meta, nil
}

// DropTable removes a table (and its model registration if any), evicting
// its cached model artifacts.
func (d *Database) DropTable(name string) error {
	key := strings.ToLower(name)
	d.mu.Lock()
	if _, ok := d.tables[key]; !ok {
		d.mu.Unlock()
		return fmt.Errorf("db: table %q does not exist", name)
	}
	delete(d.tables, key)
	delete(d.models, key)
	d.mu.Unlock()
	d.modelCache.invalidateModel(key)
	return nil
}

// queryCatalog adapts the database to plan.Catalog for one query execution;
// it shares one built model per (model, device) among all partition plan
// instances (Sec. 5.2's shared model build). The global artifact cache is
// consulted once per query per (model, device) — the memoized verdict is
// both the query-level hit/miss reported by EXPLAIN ANALYZE and a lock-
// traffic saving for wide parallel plans.
type queryCatalog struct {
	db     *Database
	mu     sync.Mutex
	shared map[string]*sharedEntry
}

type sharedEntry struct {
	sm     *modeljoin.SharedModel
	hit    bool // global-cache verdict at the query's first lookup
	pinned bool // holding the cache's hand-out pin (dropped by release)
}

func (d *Database) newQueryCatalog() *queryCatalog {
	return &queryCatalog{db: d, shared: make(map[string]*sharedEntry)}
}

// release drops the artifact cache's hand-out pins (see modelCache.get).
// Called when the statement finishes — plan failure, build failure, or the
// operator tree's Close — after which eviction may free the model as soon
// as the last in-flight operator unpins. Idempotent.
func (c *queryCatalog) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ent := range c.shared {
		if ent.pinned {
			ent.pinned = false
			ent.sm.Unpin()
		}
	}
}

// Table implements plan.Catalog.
func (c *queryCatalog) Table(name string) (*storage.Table, error) { return c.db.Table(name) }

// VirtualTable implements plan.VirtualCatalog: the binder falls back here
// when the regular lookup fails, resolving system.* names to snapshot
// scans.
func (c *queryCatalog) VirtualTable(name string) (storage.VirtualTable, bool) {
	return c.db.VirtualTable(name)
}

// Model implements plan.Catalog.
func (c *queryCatalog) Model(name string) (*relmodel.Meta, error) { return c.db.ModelMeta(name) }

// NewModelJoin implements plan.Catalog.
func (c *queryCatalog) NewModelJoin(model string, child exec.Operator, inputCols []int, dev string) (exec.Operator, error) {
	meta, err := c.db.ModelMeta(model)
	if err != nil {
		return nil, err
	}
	tbl, err := c.db.Table(model)
	if err != nil {
		return nil, err
	}
	var device device.Device
	switch dev {
	case "", "cpu":
		device = c.db.cpu
		dev = "cpu"
	case "gpu":
		device = c.db.gpu
	default:
		return nil, fmt.Errorf("db: unknown MODEL JOIN device %q (want 'cpu' or 'gpu')", dev)
	}
	name := strings.ToLower(model)
	key := name + "|" + dev
	c.mu.Lock()
	ent := c.shared[key]
	if ent == nil {
		// Cross-query artifact cache: keyed on the table's mutation version,
		// so any DML on the model table implicitly invalidates the entry. A
		// hit reuses the already-built weight matrices and skips the build
		// phase; all partition plan instances of this query share the
		// memoized lookup (the paper's shared build, Sec. 5.2). The build
		// snapshots the table after this version was read, so an entry never
		// holds contents older than its key. get hands the model out pinned.
		ent = &sharedEntry{pinned: true}
		ent.sm, ent.hit = c.db.modelCache.get(modelCacheKey{
			model:   name,
			tbl:     tbl,
			version: tbl.Version(),
			device:  dev,
		}, func() *modeljoin.SharedModel {
			return &modeljoin.SharedModel{Table: tbl, Meta: meta, Dev: device}
		})
		c.shared[key] = ent
	}
	c.mu.Unlock()
	op, err := modeljoin.New(child, ent.sm, inputCols, c.db.sched, infersched.Label{Model: name, Device: dev})
	if err != nil {
		return nil, err
	}
	op.NoteCacheLookup(ent.hit)
	return op, nil
}

// planner returns a fresh per-statement planner plus its query catalog.
// The catalog may end up holding artifact-cache hand-out pins after a
// physical build; every SELECT path must arrange for qc.release() to run
// when the statement finishes (on plan/build failure, or at the operator
// tree's Close via releaseOnClose).
func (d *Database) planner() (*plan.Planner, *queryCatalog) {
	qc := d.newQueryCatalog()
	return &plan.Planner{Cat: qc, Parallelism: d.opts.Parallelism}, qc
}

// releaseOnClose runs the query catalog's release after the operator tree
// closes, dropping the model-cache hand-out pins. A failed Open releases
// too, because the open/next/close protocol skips Close in that case.
type releaseOnClose struct {
	exec.Operator
	qc *queryCatalog
}

func (r *releaseOnClose) Open() error {
	err := r.Operator.Open()
	if err != nil {
		r.qc.release()
	}
	return err
}

func (r *releaseOnClose) Close() error {
	err := r.Operator.Close()
	r.qc.release()
	return err
}

// Result is what one statement hands back: a SELECT's operator tree and
// the trace its operators record into, which the caller runs (Collect,
// Drain or streaming; finishing the tree publishes the statement); an
// EXPLAIN [ANALYZE]'s rendering; or neither, for DDL, DML and KILL.
type Result struct {
	Op    exec.Operator
	Trace *trace.QueryTrace
	Text  string
}

// Run is the engine's one statement entry: it executes a statement read
// once by sql.ParseNormalized, dispatching on its type. rows is the row
// stream that a served INSERT INTO <table> head carries (nil otherwise).
//
// Every statement but a plain EXPLAIN, which only plans, has one flight
// lifecycle. Its live-registry entry is registered by the server before
// admission and carried in ctx, or, for an embedded statement, registered
// here under a cancelable ctx so that KILL reaches it too. The statement's
// flight adopts the entry, so the query keeps one ID from queue to
// system.queries, and publishes it when the statement finishes. A statement
// that does not parse is recorded as well, with kind exec and its error: an
// error'd statement is exactly the kind the flight recorder exists to
// explain.
func (d *Database) Run(ctx context.Context, p sql.Parsed, rows *vector.Batch) (Result, error) {
	if ex, ok := p.Stmt.(*sql.ExplainStmt); ok && !ex.Analyze {
		pl, _ := d.planner() // EXPLAIN never builds physical operators, so no pins
		pp, err := pl.PlanSelect(ex.Select)
		if err != nil {
			return Result{}, err
		}
		return Result{Text: pp.Explain()}, nil
	}
	live := flight.LiveFrom(ctx)
	if live == nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		live = d.flight.Register(p, "embedded", 0, cancel)
		// Carry the registration in ctx so downstream consumers — the
		// router stamping shard fragments with their origin query ID, KILL
		// ORIGIN reaping — see the same identity the server path provides.
		ctx = flight.WithLive(ctx, live)
	}
	fl := d.flight.BeginFor(live, stmtKind(p.Stmt), approach(p.Stmt))
	fl.SetQueueWait(flight.QueueWaitFrom(ctx))
	switch s := p.Stmt.(type) {
	case *sql.SelectStmt:
		op, qt, err := d.query(ctx, fl, s, p.Text)
		return Result{Op: op, Trace: qt}, err
	case *sql.ExplainStmt:
		// EXPLAIN ANALYZE executes the SELECT and renders the annotated
		// plan: per-operator wall time, row counts, phase counters and the
		// statement total (draining the tree finishes the trace).
		op, qt, err := d.query(ctx, fl, s.Select, p.Text)
		if err == nil {
			err = exec.Drain(op, func(*vector.Batch) error { return nil })
		}
		if err != nil {
			return Result{}, err
		}
		return Result{Text: qt.Render()}, nil
	}
	err := d.exec(ctx, p, rows)
	fl.Finish(err)
	return Result{}, err
}

// query plans a SELECT, through the router when one is installed, and
// returns its operator tree wrapped to seal fl when it finishes, plus the
// QueryTrace its operators record into. Every plan is built with spans
// (their hot path is a few atomic adds per batch) so that the flight
// summary can fold a per-operator breakdown.
func (d *Database) query(ctx context.Context, fl *flight.Flight, sel *sql.SelectStmt, text string) (exec.Operator, *trace.QueryTrace, error) {
	qt := trace.NewQueryTrace(text)
	var op exec.Operator
	var err error
	routed := false
	if d.router != nil {
		op, routed, err = d.router.RouteSelect(ctx, sel, text)
	}
	switch {
	case err != nil:
	case routed:
		op = tracedRouted(op, qt)
	default:
		op, err = d.buildSelect(ctx, sel, qt)
	}
	if err != nil {
		fl.Finish(err)
		return nil, nil, err
	}
	fl.AttachTrace(qt)
	return flight.Wrap(op, fl), qt, nil
}

// exec runs a DDL/DML or KILL statement, or appends a row stream under its
// INSERT INTO head: how a shard applies the rows a coordinator ships it.
// DDL/DML statements are short, so the context is consulted between parse
// and execution rather than inside row appends; a statement that has begun
// mutating the catalog completes.
func (d *Database) exec(ctx context.Context, p sql.Parsed, rows *vector.Batch) error {
	if p.Err != nil {
		return p.Err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if ins, ok := p.Stmt.(*sql.InsertStmt); ok && rows != nil {
		return d.appendRows(ins.Table, rows)
	}
	return d.execRouted(ctx, p.Stmt, p.Text)
}

// errNotSelect is how the SELECT wrappers below refuse another statement.
var errNotSelect = errors.New("sql: expected a SELECT statement")

// parseSelect reads text for the SELECT wrappers: a statement that parses
// but is no SELECT fails, as one that does not parse.
func parseSelect(text string) sql.Parsed {
	p := sql.ParseNormalized(text, false)
	if _, ok := p.Stmt.(*sql.SelectStmt); !ok && p.Err == nil {
		p.Stmt, p.Err = nil, errNotSelect
	}
	return p
}

// Query parses, plans and executes a SELECT, materializing the result. It
// is the uncancellable convenience wrapper over QueryContext.
func (d *Database) Query(text string) (*vector.Batch, error) {
	return d.QueryContext(context.Background(), text)
}

// QueryContext is Query with cancellation: a canceled or expired ctx makes
// execution return ctx's error at the next batch boundary (the Scan leaves
// and any Exchange check it), instead of running the query to completion.
func (d *Database) QueryContext(ctx context.Context, text string) (*vector.Batch, error) {
	op, err := d.QueryOpContext(ctx, text)
	if err != nil {
		return nil, err
	}
	return exec.Collect(op)
}

// QueryOp plans a SELECT and returns the physical operator tree without
// executing it — used by the benchmark harness to separate planning from
// execution and to stream results without materialization.
func (d *Database) QueryOp(text string) (exec.Operator, error) {
	return d.QueryOpContext(context.Background(), text)
}

// QueryOpContext is QueryOp with a cancellation context attached to the
// built operator tree. Finishing the operator — end of stream, error, or
// Close — publishes the statement's summary to system.queries.
func (d *Database) QueryOpContext(ctx context.Context, text string) (exec.Operator, error) {
	op, _, err := d.QueryOpTracedContext(ctx, text)
	return op, err
}

// QueryOpTracedContext is Run for a SELECT given as text: it returns the
// statement's operator tree and the QueryTrace its operators record into.
// The caller runs the operator (Collect, Drain or streaming); callers that
// want the statement clock closed at a point of their choosing call
// qt.Finish themselves.
func (d *Database) QueryOpTracedContext(ctx context.Context, text string) (exec.Operator, *trace.QueryTrace, error) {
	res, err := d.Run(ctx, parseSelect(text), nil)
	return res.Op, res.Trace, err
}

// Explain returns the query plan rendering for a SELECT: Run of EXPLAIN
// <text>.
func (d *Database) Explain(text string) (string, error) {
	p := parseSelect(text)
	if p.Err != nil {
		return "", p.Err
	}
	p.Stmt = &sql.ExplainStmt{Select: p.Stmt.(*sql.SelectStmt)}
	res, err := d.Run(context.Background(), p, nil)
	return res.Text, err
}

// Exec runs a DDL/DML statement (CREATE TABLE, CREATE MODEL TABLE, INSERT,
// DELETE, UPDATE, DROP TABLE, KILL, CREATE/DROP ALERT). EXPLAIN and SELECT
// are refused — use Query/Explain.
func (d *Database) Exec(text string) error {
	return d.ExecContext(context.Background(), text)
}

// ExecContext is Exec with cancellation: Run of text, refusing a SELECT or
// EXPLAIN.
func (d *Database) ExecContext(ctx context.Context, text string) error {
	p := sql.ParseNormalized(text, false)
	switch p.Stmt.(type) {
	case *sql.SelectStmt, *sql.ExplainStmt:
		p.Stmt, p.Err = nil, fmt.Errorf("db: Exec does not handle %T; use Query for SELECT", p.Stmt)
	}
	_, err := d.Run(ctx, p, nil)
	return err
}

// buildSelect plans sel and builds its operator tree under ctx, recording
// spans into qt. The returned operator drops the statement's model-cache
// hand-out pins when it closes (or fails to open).
func (d *Database) buildSelect(ctx context.Context, sel *sql.SelectStmt, qt *trace.QueryTrace) (exec.Operator, error) {
	pl, qc := d.planner()
	p, err := pl.PlanSelect(sel)
	if err != nil {
		return nil, err
	}
	op, err := p.Build(ctx, qt)
	if err != nil {
		qc.release()
		return nil, err
	}
	return &releaseOnClose{op, qc}, nil
}

// QueryOpLocal plans and builds a SELECT with purely local execution: no
// router interception, no flight recording. The coordinator uses it for
// finalization plans over already-gathered partial results (routing those
// again would recurse) and for schema derivation of shard fragments.
func (d *Database) QueryOpLocal(ctx context.Context, sel *sql.SelectStmt) (exec.Operator, error) {
	return d.buildSelect(ctx, sel, trace.NewQueryTrace(""))
}

// PlanSchema plans a SELECT locally (no physical build, no routing) and
// returns its output schema — how the coordinator derives a shard fragment's
// wire schema from its own replicated catalog without executing anything.
func (d *Database) PlanSchema(sel *sql.SelectStmt) (*types.Schema, error) {
	pl, _ := d.planner() // no physical build, so no pins to release
	p, err := pl.PlanSelect(sel)
	if err != nil {
		return nil, err
	}
	return p.Schema(), nil
}

// tracedRouted wraps a router-built operator tree in a span so EXPLAIN
// ANALYZE, the slow-query log and system.active_queries progress sampling
// work for distributed statements too. The span carries the operator's own
// description when it offers one, and operators that implement SpanCarrier
// (RemoteExchange) get the root handed to them so they can hang per-shard
// exchange spans — and stitched fragment subtrees — underneath it.
func tracedRouted(rop exec.Operator, qt *trace.QueryTrace) exec.Operator {
	name := "RemoteExchange"
	if dsc, ok := rop.(interface{ Describe() string }); ok {
		name = dsc.Describe()
	}
	qt.Root = trace.NewSpan(name)
	if sc, ok := rop.(trace.SpanCarrier); ok {
		sc.SetSpan(qt.Root)
	}
	return exec.NewTraced(rop, qt.Root)
}

// approach tags a statement for the flight recorder: modeljoin for a
// SELECT (or EXPLAIN ANALYZE) with a MODEL JOIN in its FROM tree, local or
// routed, sql for everything else.
func approach(stmt sql.Stmt) string {
	if ex, ok := stmt.(*sql.ExplainStmt); ok {
		stmt = ex.Select
	}
	if sel, ok := stmt.(*sql.SelectStmt); ok && hasModelJoin(sel.From) {
		return "modeljoin"
	}
	return "sql"
}

// hasModelJoin walks a FROM tree for a MODEL JOIN.
func hasModelJoin(ref sql.TableRef) bool {
	switch r := ref.(type) {
	case *sql.ModelJoinRef:
		return true
	case *sql.JoinRef:
		return hasModelJoin(r.Left) || hasModelJoin(r.Right)
	case *sql.SubqueryRef:
		return hasModelJoin(r.Select.From)
	}
	return false
}

// execRouted gives an installed router first refusal on a parsed DDL/DML
// statement (replication to shards, row scattering); unhandled statements
// execute locally.
func (d *Database) execRouted(ctx context.Context, stmt sql.Stmt, text string) error {
	if d.router != nil {
		if handled, err := d.router.RouteExec(ctx, stmt, text); handled || err != nil {
			return err
		}
	}
	return d.execStmt(stmt)
}

// ExecStmtLocal runs a parsed DDL/DML statement with purely local execution
// — no router interception and no flight recording. The coordinator uses it
// for its own catalog bookkeeping while RouteExec handles the fleet side.
func (d *Database) ExecStmtLocal(stmt sql.Stmt) error { return d.execStmt(stmt) }

func (d *Database) execStmt(stmt sql.Stmt) error {
	switch s := stmt.(type) {
	case *sql.CreateTableStmt:
		return d.execCreate(s)
	case *sql.InsertStmt:
		return d.execInsert(s)
	case *sql.DeleteStmt:
		return d.execDelete(s)
	case *sql.UpdateStmt:
		return d.execUpdate(s)
	case *sql.DropTableStmt:
		return d.DropTable(s.Name)
	case *sql.KillStmt:
		if s.Origin {
			// KILL ORIGIN targets every statement stamped with the given
			// origin query id — how a coordinator reaps shard fragments.
			// Matching zero statements is fine: the fragment already ended.
			d.flight.KillOrigin(s.ID)
			return nil
		}
		return d.Kill(s.ID)
	case *sql.CreateAlertStmt:
		return d.tel.Alerts().CreateAlert(s)
	case *sql.DropAlertStmt:
		return d.tel.Alerts().DropAlert(s.Name)
	default:
		return fmt.Errorf("db: Exec does not handle %T; use Query for SELECT", stmt)
	}
}

// stmtKind maps a parsed statement to its flight-recorder kind tag; one
// that did not parse is an exec.
func stmtKind(stmt sql.Stmt) string {
	switch stmt.(type) {
	case *sql.SelectStmt, *sql.ExplainStmt:
		return "select"
	case *sql.CreateTableStmt:
		return "create"
	case *sql.InsertStmt:
		return "insert"
	case *sql.DeleteStmt:
		return "delete"
	case *sql.UpdateStmt:
		return "update"
	case *sql.DropTableStmt:
		return "drop"
	case *sql.KillStmt:
		return "kill"
	case *sql.CreateAlertStmt:
		return "create_alert"
	case *sql.DropAlertStmt:
		return "drop_alert"
	default:
		return "exec"
	}
}

func (d *Database) execCreate(s *sql.CreateTableStmt) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, exists := d.tables[key]; exists {
		return fmt.Errorf("db: table %q already exists", s.Name)
	}
	parts := s.Partitions
	if parts == 0 {
		parts = d.opts.DefaultPartitions
	}
	var schema *types.Schema
	var modelMeta *relmodel.Meta
	if s.Model {
		// Sec. 5.5: a model table has the fixed relational model schema.
		schema = relmodel.Schema(relmodel.LayoutPairs)
		if s.MetaJSON != "" {
			// META '<json>' registers the model in the catalog at create
			// time, so a model replicated to a shard (this statement, then
			// its rows as a row stream) is MODEL JOIN-able once its weight
			// rows arrive.
			m, err := relmodel.ParseMeta(s.MetaJSON)
			if err != nil {
				return err
			}
			modelMeta, schema = m, relmodel.Schema(m.Layout)
		}
	} else {
		cols := make([]types.Column, len(s.Cols))
		for i, c := range s.Cols {
			t, err := types.ParseType(c.Type)
			if err != nil {
				return err
			}
			cols[i] = types.Column{Name: c.Name, Type: t}
		}
		schema = types.NewSchema(cols...)
	}
	if s.ShardBy != "" {
		// A plain (non-coordinator) engine validates the clause and stores
		// the whole table; the shard catalog lives in the coordinator router.
		if _, ok := schema.Lookup(s.ShardBy); !ok {
			return fmt.Errorf("db: SHARD BY column %q does not exist", s.ShardBy)
		}
	}
	opts := storage.Options{Partitions: parts}
	tbl := storage.NewTable(s.Name, schema, opts)
	if s.SortedBy != "" {
		idx, ok := schema.Lookup(s.SortedBy)
		if !ok {
			return fmt.Errorf("db: SORTED BY column %q does not exist", s.SortedBy)
		}
		tbl.SetSortedBy(idx)
	}
	d.tables[key] = tbl
	if modelMeta != nil {
		d.models[key] = modelMeta
	}
	return nil
}
