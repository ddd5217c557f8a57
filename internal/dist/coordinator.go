// Package dist is the horizontal scale-out layer: one coordinator engine
// over N shard daemons. Tables created with SHARD BY hash-partition their
// rows across the shards; everything else (model tables included)
// replicates to every shard. Distributed SELECTs split into per-shard
// fragments — scans, filters, partial aggregation and MODEL JOIN inference
// all run shard-side against each shard's local engine and artifact cache —
// and the coordinator merges the streams through exec.RemoteExchange,
// finalizing partial aggregates where needed. Shards are entirely ordinary
// vectordbd processes: the coordinator speaks the same wire protocol as any
// client, so the distributed layer composes with admission control,
// deadlines, KILL and the flight recorder for free.
package dist

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/flight"
	"indbml/internal/metrics"
	"indbml/internal/trace"
)

// exchStats are the coordinator-wide scatter-gather counters: the
// vectordb_exchange_* gauges, also folded into the STATUS shards line.
type exchStats struct {
	fanouts      *metrics.Gauge // distributed SELECTs planned
	fragments    *metrics.Gauge // fragment streams opened (fanouts × shards)
	fragmentErrs *metrics.Gauge // fragment open/stream failures
	bytesIn      *metrics.Gauge // row payload bytes gathered off the wire
	rowsMerged   *metrics.Gauge // rows merged through RemoteExchange
}

// Coordinator implements db.Router over a fleet of shard daemons. The
// coordinator's own database holds the schema of every table (sharded
// tables stay empty locally — their rows live on the shards) plus full
// copies of replicated tables, so local planning works uniformly.
type Coordinator struct {
	db     *db.Database
	shards []*shardPool

	mu      sync.RWMutex
	sharded map[string]string // lowercased table name -> shard column

	tmpSeq atomic.Uint64
	exch   exchStats
}

// fleetTables names the engine's system tables that get the fleet-wide
// fan-out treatment (a leading "shard" column unioning every shard's view).
// Everything else — including the coordinator's dist.partial_* temp tables —
// stays local.
var fleetTables = []string{
	"system.queries",
	"system.active_queries",
	"system.query_operators",
	"system.statement_stats",
	"system.metrics",
	"system.inference_batches",
	"system.metrics_history",
	"system.latency_history",
	"system.alerts",
}

// New attaches a coordinator for the given shard addresses to d: it
// installs itself as the database's router, replaces each of db.Open's
// fleetTables with a fleet-wide version that unions every shard's view
// (tagged by a leading "shard" column), registers the system.shards health
// table and puts the exchange counters on d's registry.
func New(d *db.Database, addrs []string) *Coordinator {
	co := &Coordinator{db: d, sharded: make(map[string]string)}
	for i, addr := range addrs {
		co.shards = append(co.shards, &shardPool{id: i, addr: addr})
	}
	d.SetRouter(co)
	for _, name := range fleetTables {
		local, ok := d.VirtualTable(name)
		if !ok {
			panic("dist: engine has no " + name)
		}
		d.RegisterVirtualTable(fleetTable{co: co, local: local})
	}
	d.RegisterVirtualTable(storage.NewVirtualTable("system.shards", shardsSchema, co.fillShards))
	reg := d.Metrics()
	reg.NewGaugeFunc("vectordb_shards", "Configured shard count behind this coordinator.",
		func() float64 { return float64(len(co.shards)) })
	co.exch = exchStats{
		fanouts:      reg.NewGauge("vectordb_exchange_fanouts_total", "Distributed SELECTs planned by the coordinator."),
		fragments:    reg.NewGauge("vectordb_exchange_fragments_total", "Shard fragment streams opened."),
		fragmentErrs: reg.NewGauge("vectordb_exchange_fragment_errors_total", "Shard fragment open/stream failures."),
		bytesIn:      reg.NewGauge("vectordb_exchange_bytes_in_total", "Row payload bytes gathered from shards."),
		rowsMerged:   reg.NewGauge("vectordb_exchange_rows_merged_total", "Rows merged through RemoteExchange."),
	}
	return co
}

// StatusLine renders the fleet summary for the coordinator's STATUS
// "shards:" line: configured count, live reachability, and cumulative
// fragment traffic. Reachability is an active STATUS probe per shard.
func (co *Coordinator) StatusLine() string {
	reachable := 0
	for _, p := range co.shards {
		if p.probe() {
			reachable++
		}
	}
	return fmt.Sprintf("count=%d reachable=%d fanouts=%d fragments=%d fragment_errors=%d",
		len(co.shards), reachable, co.exch.fanouts.Value(), co.exch.fragments.Value(),
		co.exch.fragmentErrs.Value())
}

// Close drops the idle pooled shard connections.
func (co *Coordinator) Close() {
	for _, p := range co.shards {
		p.closeIdle()
	}
}

// NumShards returns the fleet size.
func (co *Coordinator) NumShards() int { return len(co.shards) }

func (co *Coordinator) shardColumn(table string) (string, bool) {
	co.mu.RLock()
	defer co.mu.RUnlock()
	col, ok := co.sharded[strings.ToLower(table)]
	return col, ok
}

// shardOf maps the shard-key value in row r of key to a shard: FNV-1a over
// the value's canonical text — integers in decimal, floats in their
// shortest form, booleans as true/false — so a value lands on one shard
// however the statement spelled it (7 and 7.0 bind to the same INTEGER)
// and whichever integer width its column has. The text is formatted into a
// stack buffer: placing a row allocates nothing.
func shardOf(key *vector.Vector, r, shards int) int {
	var buf [32]byte
	var h uint64
	switch key.Type() {
	case types.String:
		h = fnv1a(key.Strings()[r])
	case types.Bool:
		h = fnv1a(strconv.AppendBool(buf[:0], key.Bools()[r]))
	case types.Int32:
		h = fnv1a(strconv.AppendInt(buf[:0], int64(key.Int32s()[r]), 10))
	case types.Int64:
		h = fnv1a(strconv.AppendInt(buf[:0], key.Int64s()[r], 10))
	case types.Float32:
		h = fnv1a(strconv.AppendFloat(buf[:0], float64(key.Float32s()[r]), 'g', -1, 32))
	case types.Float64:
		h = fnv1a(strconv.AppendFloat(buf[:0], key.Float64s()[r], 'g', -1, 64))
	}
	return int(h % uint64(shards))
}

func fnv1a[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// each runs f on every shard concurrently and returns the first error.
func (co *Coordinator) each(f func(i int, p *shardPool) error) error {
	errs := make(chan error, len(co.shards))
	for i, p := range co.shards {
		go func() { errs <- f(i, p) }()
	}
	var first error
	for range co.shards {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// broadcast runs one statement on every shard concurrently and returns the
// first error.
func (co *Coordinator) broadcast(ctx context.Context, sqlText string) error {
	return co.each(func(_ int, p *shardPool) error { return p.exec(ctx, sqlText) })
}

// ship appends b to table on every shard, one row stream each.
func (co *Coordinator) ship(ctx context.Context, table string, b *vector.Batch) error {
	return co.each(func(_ int, p *shardPool) error { return p.insert(ctx, table, b) })
}

// RouteExec implements db.Router for DDL/DML: replicated statements run
// locally and broadcast to every shard; statements against sharded tables
// scatter (INSERT) or broadcast without a local copy (DELETE/UPDATE).
func (co *Coordinator) RouteExec(ctx context.Context, stmt sql.Stmt, text string) (bool, error) {
	switch s := stmt.(type) {
	case *sql.CreateTableStmt:
		if err := co.db.ExecStmtLocal(stmt); err != nil {
			return true, err
		}
		if err := co.broadcast(ctx, text); err != nil {
			return true, err
		}
		if s.ShardBy != "" {
			co.mu.Lock()
			co.sharded[strings.ToLower(s.Name)] = strings.ToLower(s.ShardBy)
			co.mu.Unlock()
		}
		return true, nil
	case *sql.InsertStmt:
		b, err := co.db.BindInsert(s)
		if err != nil {
			return true, err
		}
		if col, ok := co.shardColumn(s.Table); ok {
			return true, co.scatterInsert(ctx, s.Table, b, col)
		}
		tbl, err := co.db.Table(s.Table)
		if err != nil {
			return true, err
		}
		if err := tbl.Append(b); err != nil {
			return true, err
		}
		return true, co.ship(ctx, s.Table, b)
	case *sql.DeleteStmt:
		return true, co.routeMutation(ctx, stmt, s.Table, text)
	case *sql.UpdateStmt:
		return true, co.routeMutation(ctx, stmt, s.Table, text)
	case *sql.DropTableStmt:
		if err := co.db.ExecStmtLocal(stmt); err != nil {
			return true, err
		}
		if err := co.broadcast(ctx, text); err != nil {
			return true, err
		}
		co.mu.Lock()
		delete(co.sharded, strings.ToLower(s.Name))
		co.mu.Unlock()
		return true, nil
	case *sql.CreateAlertStmt, *sql.DropAlertStmt:
		// Alert DDL is broadcast like other DDL: every shard evaluates its
		// own copy against its own telemetry, and the fleet system.alerts
		// view shows per-shard state under the shard column.
		if err := co.db.ExecStmtLocal(stmt); err != nil {
			return true, err
		}
		return true, co.broadcast(ctx, text)
	default:
		// KILL and friends stay local; RemoteExchange teardown propagates
		// cancellation to shard fragments.
		return false, nil
	}
}

// routeMutation applies a DELETE/UPDATE: on sharded tables it broadcasts
// only (the coordinator's local copy is empty); on replicated tables it
// runs locally then broadcasts.
func (co *Coordinator) routeMutation(ctx context.Context, stmt sql.Stmt, table, text string) error {
	if _, ok := co.shardColumn(table); ok {
		return co.broadcast(ctx, text)
	}
	if err := co.db.ExecStmtLocal(stmt); err != nil {
		return err
	}
	return co.broadcast(ctx, text)
}

// scatterInsert splits an INSERT bound into b by each row's shard-key value
// and ships every shard its share as one row stream. A NULL key fails the
// statement before anything ships.
func (co *Coordinator) scatterInsert(ctx context.Context, table string, b *vector.Batch, shardCol string) error {
	ki, ok := b.Schema.Lookup(shardCol)
	if !ok {
		return fmt.Errorf("dist: shard column %q missing from table %s", shardCol, table)
	}
	key := b.Vecs[ki]
	sels := make([][]int, len(co.shards))
	for r := range b.Len() {
		if key.NullAt(r) {
			return fmt.Errorf("dist: INSERT row %d: shard column %q is NULL", r, shardCol)
		}
		i := shardOf(key, r, len(co.shards))
		sels[i] = append(sels[i], r)
	}
	return co.each(func(i int, p *shardPool) error {
		share := b // when every row lands on this shard
		switch len(sels[i]) {
		case 0:
			return nil
		case b.Len():
		default:
			share = vector.NewBatch(b.Schema, len(sels[i]))
			for c, v := range share.Vecs {
				v.AppendFrom(b.Vecs[c], sels[i])
			}
			share.SetLen(len(sels[i]))
		}
		return p.insert(ctx, table, share)
	})
}

// RouteSelect implements db.Router for queries: SELECTs touching no
// sharded table fall through to purely local planning (replicated tables
// are fully present on the coordinator); SELECTs over exactly one sharded
// table split into shard fragments merged by a RemoteExchange.
func (co *Coordinator) RouteSelect(ctx context.Context, sel *sql.SelectStmt, text string) (exec.Operator, bool, error) {
	n, sub := co.countSharded(sel.From, false)
	if n == 0 {
		return nil, false, nil
	}
	if n > 1 {
		return nil, true, fmt.Errorf("dist: a distributed query may reference one sharded table, found %d", n)
	}
	if sub {
		return nil, true, fmt.Errorf("dist: sharded tables inside FROM subqueries are not supported")
	}

	plan, err := splitSelect(sel)
	if err != nil {
		return nil, true, err
	}

	origin := flight.LiveFrom(ctx).ID()
	fragSQL := RenderSelect(plan.fragment)
	fragSchema, err := co.db.PlanSchema(plan.fragment)
	if err != nil {
		return nil, true, fmt.Errorf("dist: planning fragment schema: %w", err)
	}

	var timeout time.Duration
	if dl, ok := ctx.Deadline(); ok {
		timeout = time.Until(dl)
		if timeout <= 0 {
			return nil, true, context.DeadlineExceeded
		}
	}

	co.exch.fanouts.Add(1)
	sources := make([]exec.RemoteSource, len(co.shards))
	srcs := make([]*shardSource, len(co.shards))
	for i, p := range co.shards {
		src := &shardSource{
			pool:    p,
			sqlText: fragSQL,
			schema:  fragSchema,
			origin:  origin,
			timeout: timeout,
			ctx:     ctx,
			stats:   &co.exch,
		}
		srcs[i] = src
		sources[i] = src
	}
	ex, err := exec.NewRemoteExchange(fragSchema, sources)
	if err != nil {
		return nil, true, err
	}
	ex.Ctx = ctx
	ex.OnStop = func() { co.killFragments(origin, srcs) }

	if plan.final == nil {
		return ex, true, nil
	}

	// Finalization: gather the partial rows into a temp virtual table and
	// run the recombination through the ordinary local planner.
	tmpName := fmt.Sprintf("dist.partial_%d", co.tmpSeq.Add(1))
	holder := &partialHolder{name: tmpName, schema: fragSchema}
	final := *plan.final
	final.From = &sql.BaseTable{Name: tmpName}
	co.db.RegisterVirtualTable(holder)
	finalOp, err := co.db.QueryOpLocal(ctx, &final)
	if err != nil {
		co.db.UnregisterVirtualTable(tmpName)
		return nil, true, fmt.Errorf("dist: planning finalization: %w", err)
	}
	return &gatherFinalize{ex: ex, holder: holder, final: finalOp, db: co.db}, true, nil
}

// countSharded counts distinct sharded tables under ref; sub reports
// whether any of them sits inside a subquery.
func (co *Coordinator) countSharded(ref sql.TableRef, inSub bool) (int, bool) {
	switch r := ref.(type) {
	case nil:
		return 0, false
	case *sql.BaseTable:
		if _, ok := co.shardColumn(r.Name); ok {
			return 1, inSub
		}
		return 0, false
	case *sql.JoinRef:
		ln, ls := co.countSharded(r.Left, inSub)
		rn, rs := co.countSharded(r.Right, inSub)
		return ln + rn, ls || rs
	case *sql.ModelJoinRef:
		return co.countSharded(r.Fact, inSub)
	case *sql.SubqueryRef:
		return co.countSharded(r.Select.From, true)
	default:
		return 0, false
	}
}

// killFragments sends best-effort KILL ORIGIN to every shard whose
// fragment has not already finished — the teardown path behind coordinator
// KILL, deadline expiry and client disconnect. Closing the streaming
// connections (done by RemoteExchange right after this hook) aborts the
// transport; KILL ORIGIN additionally cancels fragments still queued in
// admission or waiting for an inference pass, where nobody is
// writing to the connection yet.
func (co *Coordinator) killFragments(origin uint64, srcs []*shardSource) {
	if origin == 0 {
		return
	}
	var wg sync.WaitGroup
	for i, src := range srcs {
		if src.clean.Load() {
			continue
		}
		wg.Add(1)
		go func(p *shardPool) {
			defer wg.Done()
			c, err := p.get()
			if err != nil {
				return
			}
			err = c.KillOrigin(origin)
			p.release(c, err)
		}(co.shards[i])
	}
	wg.Wait()
}

// replicateRows caps the rows of one model-replication stream, keeping the
// stream well inside the wire's size limit (a model-table row encodes in
// under 70 bytes).
const replicateRows = 1 << 18

// ReplicateModel ships a Go-API-registered model to every shard: a CREATE
// MODEL TABLE ... META '<json>' carrying the layer metadata as SQL, then
// the weight rows as row streams (Sec. 4.1's relational model layout is the
// replication format — models move as plain rows).
func (co *Coordinator) ReplicateModel(ctx context.Context, name string) error {
	tbl, err := co.db.Table(name)
	if err != nil {
		return err
	}
	meta, err := co.db.ModelMeta(name)
	if err != nil {
		return err
	}
	if err := co.broadcast(ctx, relmodel.CreateStatement(tbl, meta)); err != nil {
		return err
	}
	rows := vector.NewBatch(tbl.Schema, 0)
	buf := vector.NewBatch(tbl.Schema, vector.Size)
	for p := range tbl.Partitions() {
		sc, err := tbl.NewScanner(p, nil, nil)
		if err != nil {
			return err
		}
		for sc.Next(buf) {
			rows.AppendBatch(buf)
			if rows.Len() >= replicateRows {
				if err := co.ship(ctx, tbl.Name, rows); err != nil {
					return err
				}
				rows.Reset()
			}
		}
	}
	if rows.Len() == 0 {
		return nil
	}
	return co.ship(ctx, tbl.Name, rows)
}

// partialHolder is the temp virtual table that carries gathered partial
// batches from the RemoteExchange into the finalization plan. VirtualScan
// snapshots at Open, and gatherFinalize fills the holder before opening the
// final operator, so the scan sees exactly the gathered rows.
type partialHolder struct {
	name    string
	schema  *types.Schema
	batches []*vector.Batch
}

func (h *partialHolder) Name() string                       { return h.name }
func (h *partialHolder) Schema() *types.Schema              { return h.schema }
func (h *partialHolder) Snapshot() ([]*vector.Batch, error) { return h.batches, nil }

// gatherFinalize drains the RemoteExchange into the partial holder at Open,
// then serves the finalization plan's output.
type gatherFinalize struct {
	ex     *exec.RemoteExchange
	holder *partialHolder
	final  exec.Operator
	db     *db.Database

	closed bool
}

func (g *gatherFinalize) Schema() *types.Schema { return g.final.Schema() }

// Describe names the operator for EXPLAIN/trace output.
func (g *gatherFinalize) Describe() string { return "RemoteExchange+Finalize" }

// SetSpan implements trace.SpanCarrier: the exchange hangs its per-shard
// source spans off s, and the finalization plan records into a "Finalize"
// child, so a finalized distributed query renders gather and recombination
// separately.
func (g *gatherFinalize) SetSpan(s *trace.Span) {
	g.ex.SetSpan(s)
	g.final = exec.NewTraced(g.final, s.NewChild("Finalize"))
}

func (g *gatherFinalize) Open() error {
	if err := g.ex.Open(); err != nil {
		g.ex.Close()
		return err
	}
	for {
		b, err := g.ex.Next()
		if err != nil {
			g.ex.Close()
			return err
		}
		if b == nil {
			break
		}
		g.holder.batches = append(g.holder.batches, b)
	}
	g.ex.Close()
	return g.final.Open()
}

func (g *gatherFinalize) Next() (*vector.Batch, error) { return g.final.Next() }

func (g *gatherFinalize) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	g.ex.Close()
	// Close final even if its Open never ran: it carries the query's
	// artifact-cache pins, which must release exactly once.
	err := g.final.Close()
	g.db.UnregisterVirtualTable(g.holder.name)
	return err
}
