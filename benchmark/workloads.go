package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"indbml/internal/core/mltosql"
	"indbml/internal/core/relmodel"
	"indbml/internal/dist"
	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
	"indbml/internal/server"
	"indbml/internal/server/client"
	"indbml/internal/trace"
	"indbml/internal/workload"
)

// The sandbox has two cores. Everything a workload starts — engine, server,
// shards, callers — shares them in one process, so the engine's parallelism
// is pinned to the same 2 that main sets GOMAXPROCS to.
const (
	parallelism = 2
	partitions  = 4
	// opTimeout is the latency beyond which an operation counts as failed.
	opTimeout = 30 * time.Second
)

// dbOptions is the engine configuration of every workload: production
// defaults (flight recorder, statement statistics, inference scheduler and
// model cache all on, CPU device) with only the sizing pinned.
func dbOptions() db.Options {
	return db.Options{DefaultPartitions: partitions, Parallelism: parallelism}
}

// workloadDef is one set of inputs the benchmark runs. Every workload is a
// closed loop: each caller sends its next statement only after the previous
// reply, as callers of an analytical database do.
type workloadDef struct {
	name    string
	callers int
	// prepare derives the inputs from the seed. It is not timed: reference
	// predictions are the benchmark's work, not the program's.
	prepare func(seed int64) (inputs, error)
}

// inputs build the environment of one run. setup is what setup_s times:
// table generation, model registration, server and shard start.
type inputs interface {
	setup(s scope) (env, error)
}

// env is a running system under test.
type env interface {
	// run executes one operation as the given caller and checks its result;
	// full asks for the complete comparison against the reference forward
	// pass rather than the per-operation row-count check. A recording scope
	// makes it run the statement traced and record ledger spans.
	run(ctx context.Context, caller int, full bool, s scope) error
	// sample is the model the workload infers with and fact rows it infers
	// over: the Sgemm replay runs the model's layer shapes on their real
	// activations.
	sample() (*nn.Model, [][]float32)
	// engines lists every database in the process, for cache and scheduler
	// counters.
	engines() []*db.Database
	close()
}

// baseliner is implemented by the workloads that cross the wire: baseline
// runs the same statement embedded on a single node, so the traced run can
// report what the server or the distribution layer adds under the metric
// overheadMetric names, and hands back the result batch for the wire codec
// replay.
type baseliner interface {
	baseline(ctx context.Context) (*vector.Batch, error)
	overheadMetric() string
}

// The five workloads. README.md and BENCHMARK.json say why each exists.
var workloads = []workloadDef{
	// MODEL JOIN aggregate, dense 256x4 over 3000 Iris tuples, model cached.
	{name: "mj_wide", callers: 1, prepare: func(seed int64) (inputs, error) {
		return prepareIris(seed, 256, 4, 3000), nil
	}},
	// The ML-To-SQL query of dense 32x2 over 800 tuples.
	{name: "ml2sql_small", callers: 1, prepare: func(seed int64) (inputs, error) {
		return ml2sqlInputs{prepareIris(seed, 32, 2, 800)}, nil
	}},
	// UPDATE of one weight of dense 128x4, then MODEL JOIN over 1000 tuples.
	{name: "mj_model_update", callers: 1, prepare: prepareUpdate},
	// Two wire clients each fetch 50000 id, prediction rows of dense 32x2.
	{name: "serve_rows", callers: 2, prepare: func(seed int64) (inputs, error) {
		return serveInputs{prepareIris(seed, 32, 2, 50000)}, nil
	}},
	// A coordinator over 2 shard servers returns 20000 rows of dense 32x2.
	{name: "dist_rows", callers: 1, prepare: func(seed int64) (inputs, error) {
		return prepareDist(seed), nil
	}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scope is a position in the ledger: the operation and the span that new
// spans hang under. The zero scope records nothing.
type scope struct {
	rec        *recorder
	op, parent int
}

func noop() {}

// span opens a span and returns the function that closes it.
func (s scope) span(name string) func() {
	if s.rec == nil {
		return noop
	}
	id := s.rec.begin(name, s.op, s.parent)
	return func() { s.rec.end(id) }
}

// count adds to a named per-run counter of the ledger.
func (s scope) count(name string, v int64) {
	if s.rec == nil {
		return
	}
	s.rec.mu.Lock()
	if s.rec.counts == nil {
		s.rec.counts = make(map[string]int64)
	}
	s.rec.counts[name] += v
	s.rec.mu.Unlock()
}

// --- statement drivers ---

// selectEmbedded runs a SELECT on d and materializes it. Untraced it is
// db.QueryContext. Traced it walks the same steps one by one with a span
// around each — parse (replayed: QueryOp parses again itself), plan and
// build, Open, the Next loop, Close — and folds in the statement's own span
// tree.
func selectEmbedded(ctx context.Context, d *db.Database, text string, s scope) (*vector.Batch, error) {
	if s.rec == nil {
		return d.QueryContext(ctx, text)
	}
	s.count("stmt_bytes", int64(len(text)))
	end := s.span("sql.Parse")
	_, err := sql.Parse(text)
	end()
	if err != nil {
		return nil, err
	}
	end = s.span("db.QueryOpContext")
	op, qt, err := d.QueryOpTracedContext(ctx, text)
	end()
	if err != nil {
		return nil, err
	}
	out, err := collectTraced(op, s)
	qt.Finish(err)
	if err != nil {
		return nil, err
	}
	if qt.Root != nil {
		s.rec.adopt(s.op, qt.Root.Stat())
	}
	s.count("result_rows", int64(out.Len()))
	return out, nil
}

// collectTraced is exec.Collect with a span per phase.
func collectTraced(op exec.Operator, s scope) (*vector.Batch, error) {
	end := s.span("Operator.Open")
	err := op.Open()
	end()
	if err != nil {
		op.Close()
		return nil, err
	}
	out := vector.NewBatch(op.Schema(), vector.Size)
	end = s.span("Operator.Next")
	for {
		var b *vector.Batch
		if b, err = op.Next(); err != nil || b == nil {
			break
		}
		out.AppendBatch(b)
	}
	end()
	end = s.span("Operator.Close")
	cerr := op.Close()
	end()
	if err == nil {
		err = cerr
	}
	return out, err
}

// selectWire runs a SELECT through a wire client and hands every row to
// row. Traced, the server ships the statement's span tree back in the
// stream trailer.
func selectWire(c *client.Client, text string, s scope, row func([]any)) error {
	var rows *client.Rows
	var err error
	end := s.span("client.Query")
	if s.rec != nil {
		rows, err = c.QueryTracedTimeout(text, opTimeout)
	} else {
		rows, err = c.QueryTimeout(text, opTimeout)
	}
	end()
	if err != nil {
		return err
	}
	end = s.span("Rows.first")
	r := rows.Next()
	end()
	end = s.span("Rows.drain")
	n := int64(0)
	for ; r != nil; r = rows.Next() {
		row(r)
		n++
	}
	end()
	if err := rows.Err(); err != nil {
		return err
	}
	if s.rec != nil {
		s.count("stmt_bytes", int64(len(text)))
		s.count("result_rows", n)
		s.count("wire_bytes", rows.BytesRead())
		sub, err := trace.DecodeSpan(rows.Trace())
		if err != nil {
			return err
		}
		if sub != nil {
			s.rec.adopt(s.op, sub.Stat())
		}
	}
	return nil
}

// aggResult reads the single COUNT(*), AVG(prediction) row.
func aggResult(b *vector.Batch) (count int64, avg float64, err error) {
	if b.Len() != 1 || len(b.Vecs) != 2 {
		return 0, 0, fmt.Errorf("aggregate returned %d rows of %d columns, want 1 of 2", b.Len(), len(b.Vecs))
	}
	return b.Vecs[0].AsInt64(0), b.Vecs[1].AsFloat64(0), nil
}

// checkRows holds a materialized id, prediction result to the oracle.
func checkRows(o *oracle, b *vector.Batch, full bool) error {
	if !full {
		return o.checkCount(int64(b.Len()))
	}
	c := o.rows(true)
	idCol, ok1 := b.Schema.Lookup("id")
	predCol, ok2 := b.Schema.Lookup("prediction")
	if !ok1 || !ok2 {
		return fmt.Errorf("result has no id/prediction columns: %s", b.Schema)
	}
	for r := 0; r < b.Len(); r++ {
		c.add(b.Vecs[idCol].AsInt64(r), b.Vecs[predCol].AsFloat64(r))
	}
	return c.done()
}

func anyInt(v any) int64 {
	switch v := v.(type) {
	case int32:
		return int64(v)
	case int64:
		return v
	}
	return -1
}

func anyFloat(v any) float64 {
	switch v := v.(type) {
	case float32:
		return float64(v)
	case float64:
		return v
	}
	return math.NaN()
}

// startServer serves d on a loopback port with the daemon's admission
// defaults. The returned stop function closes the server and waits for its
// accept loop.
func startServer(d *db.Database) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := server.New(d, server.Config{QueueDepth: 16, QueueWait: 2 * time.Second})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns once stop closes the listener
	}()
	return ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// --- Iris-backed inputs (mj_wide, ml2sql_small, serve_rows) ---

// irisInputs is a seeded dense model over the Iris fact table replicated to
// a given size, with the reference predictions.
type irisInputs struct {
	seed         int64
	width, depth int
	tuples       int
	feats        [][]float32
	oracle       *oracle
}

// newModel draws the model from the seed. The weights are He-uniform (limit
// sqrt(6/fan_in)), so activations keep the magnitude of the inputs through any
// depth, predictions are O(1) on every width and the oracle's absolute
// tolerance discriminates. (The repository's own initializers do not:
// nn.NewDenseModel's weights shrink a 256x4 stack's outputs to ~1e-6, where
// any answer passes, and workload.SeedDense's ±0.5 grow them into the
// thousands, where float32 rounding alone fails.)
//
// The hidden units of a layer are drawn in pairs, the second unit of a pair
// with the negated weights and bias of the first: on any input exactly one of
// the two passes its ReLU. blas.Sgemm skips activations that are zero, so
// the multiply-adds a MODEL JOIN executes depend on how many units ReLU
// switches off, and over the Iris rows — all positive, so a unit is on or off
// for most of them at once — that count moved mj_wide's latency by ±5% from
// seed to seed when every unit was drawn alone. Paired, every seed is another
// function with another zero pattern, and the share of the nominal work that
// executes stays within ±0.5% of the 52% an unpaired draw has at the median.
func newModel(seed int64, width, depth int) *nn.Model {
	m := workload.DenseModel(width, depth)
	rng := rand.New(rand.NewSource(seed))
	for li, l := range m.Layers {
		d := l.(*nn.Dense)
		limit := float32(math.Sqrt(6 / float64(d.InputDim())))
		for i := range d.W.Data {
			d.W.Data[i] = (rng.Float32()*2 - 1) * limit
		}
		for i := range d.B {
			d.B[i] = (rng.Float32()*2 - 1) * 0.1
		}
		if li == len(m.Layers)-1 {
			break // the output layer is linear
		}
		pairs := rng.Perm(d.OutputDim())
		for p := 0; p+1 < len(pairs); p += 2 {
			a, b := pairs[p], pairs[p+1]
			for i := 0; i < d.W.Rows; i++ {
				d.W.Set(i, b, -d.W.At(i, a))
			}
			d.B[b] = -d.B[a]
		}
	}
	return m
}

func prepareIris(seed int64, width, depth, tuples int) *irisInputs {
	_, feats := workload.IrisTable("fact", tuples, partitions)
	return &irisInputs{seed: seed, width: width, depth: depth, tuples: tuples, feats: feats,
		oracle: newOracle(newModel(seed, width, depth), feats)}
}

// open creates the database with the fact table loaded and the model
// registered.
func (in *irisInputs) open(s scope) (*db.Database, *nn.Model, *relmodel.Meta, error) {
	d := db.Open(dbOptions())
	end := s.span("table build")
	fact, _ := workload.IrisTable("fact", in.tuples, partitions)
	d.RegisterTable(fact)
	end()
	s.count("loaded_rows", int64(in.tuples))
	m := newModel(in.seed, in.width, in.depth)
	end = s.span("db.RegisterModel")
	meta, err := d.RegisterModel(m, relmodel.ExportOptions{Partitions: partitions})
	end()
	return d, m, meta, err
}

func predictClause(model string, cols []string) string {
	return " MODEL JOIN " + model + " PREDICT(" + strings.Join(cols, ", ") + ")"
}

// embeddedEnv is one database queried in-process.
type embeddedEnv struct {
	d     *db.Database
	m     *nn.Model
	feats [][]float32
	query string
	check func(b *vector.Batch, full bool) error
}

func (e *embeddedEnv) run(ctx context.Context, _ int, full bool, s scope) error {
	b, err := selectEmbedded(ctx, e.d, e.query, s)
	if err != nil {
		return err
	}
	return e.check(b, full)
}

func (e *embeddedEnv) sample() (*nn.Model, [][]float32) { return e.m, e.feats }
func (e *embeddedEnv) engines() []*db.Database          { return []*db.Database{e.d} }
func (e *embeddedEnv) close()                           {}

// setup makes irisInputs the mj_wide workload.
func (in *irisInputs) setup(s scope) (env, error) {
	d, m, _, err := in.open(s)
	if err != nil {
		return nil, err
	}
	return &embeddedEnv{
		d: d, m: m, feats: in.feats,
		query: "SELECT COUNT(*), AVG(prediction) FROM fact" + predictClause(m.Name, workload.IrisFeatureNames),
		check: func(b *vector.Batch, _ bool) error {
			count, avg, err := aggResult(b)
			if err != nil {
				return err
			}
			return in.oracle.checkAgg(count, avg)
		},
	}, nil
}

// ml2sqlInputs runs the same model as generated SQL.
type ml2sqlInputs struct{ *irisInputs }

func (in ml2sqlInputs) setup(s scope) (env, error) {
	d, m, meta, err := in.open(s)
	if err != nil {
		return nil, err
	}
	end := s.span("mltosql.Generate")
	gen, err := mltosql.New(meta, mltosql.Options{
		FactTable: "fact", ModelTable: m.Name, IDColumn: "id",
		InputColumns: workload.IrisFeatureNames, LayerFilter: true, NativeFunctions: true,
	})
	var query string
	if err == nil {
		query, err = gen.Generate()
	}
	end()
	if err != nil {
		return nil, err
	}
	return &embeddedEnv{d: d, m: m, feats: in.feats, query: query,
		check: func(b *vector.Batch, full bool) error { return checkRows(in.oracle, b, full) }}, nil
}

// --- mj_model_update ---

type updateInputs struct {
	*irisInputs
	edits *editOracle // hidden-layer means of the unedited model; never mutated
}

func prepareUpdate(seed int64) (inputs, error) {
	in := &irisInputs{seed: seed, width: 128, depth: 4, tuples: 1000}
	_, in.feats = workload.IrisTable("fact", in.tuples, partitions)
	eo, err := newEditOracle(newModel(seed, in.width, in.depth), in.feats)
	if err != nil {
		return nil, err
	}
	return updateInputs{in, eo}, nil
}

type updateEnv struct {
	embeddedEnv
	edits *editOracle
	rng   *rand.Rand
}

func (in updateInputs) setup(s scope) (env, error) {
	d, m, _, err := in.open(s)
	if err != nil {
		return nil, err
	}
	e := &updateEnv{
		// Edits accumulate, so every environment gets its own copy of the
		// oracle's model; the edge and value sequence restarts from the seed.
		edits: in.edits.withModel(m),
		rng:   rand.New(rand.NewSource(in.seed)),
	}
	e.embeddedEnv = embeddedEnv{d: d, m: m, feats: in.feats,
		query: "SELECT COUNT(*), AVG(prediction) FROM fact" + predictClause(m.Name, workload.IrisFeatureNames)}
	return e, nil
}

func (e *updateEnv) run(ctx context.Context, _ int, full bool, s scope) error {
	unit, w := e.edits.nextEdit(e.rng)
	// Relational layer 0 is the input passthrough, so the output layer of
	// an n-layer model is layer n; its single neuron is node 0.
	stmt := fmt.Sprintf("UPDATE %s SET w_i = %s WHERE layer = %d AND node = 0 AND node_in = %d",
		e.m.Name, strconv.FormatFloat(float64(w), 'g', -1, 32), len(e.m.Layers), unit)
	s.count("stmt_bytes", int64(len(stmt)))
	end := s.span("db.ExecContext")
	err := e.d.ExecContext(ctx, stmt)
	end()
	if err != nil {
		return err
	}
	e.edits.apply(unit, w)
	b, err := selectEmbedded(ctx, e.d, e.query, s)
	if err != nil {
		return err
	}
	count, avg, err := aggResult(b)
	if err != nil {
		return err
	}
	return e.edits.checkAgg(count, avg, full)
}

// --- serve_rows ---

type serveInputs struct{ *irisInputs }

type serveEnv struct {
	embeddedEnv
	oracle  *oracle
	clients []*client.Client
	stop    func()
}

func (in serveInputs) setup(s scope) (env, error) {
	d, m, _, err := in.open(s)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{oracle: in.oracle}
	e.embeddedEnv = embeddedEnv{d: d, m: m, feats: in.feats,
		query: "SELECT id, prediction FROM fact" + predictClause(m.Name, workload.IrisFeatureNames)}
	end := s.span("server start")
	defer end()
	addr, stop, err := startServer(d)
	if err != nil {
		return nil, err
	}
	e.stop = stop
	for c := 0; c < 2; c++ {
		cl, err := client.Dial(addr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

func (e *serveEnv) run(_ context.Context, caller int, full bool, s scope) error {
	c := e.oracle.rows(full)
	err := selectWire(e.clients[caller], e.query, s, func(r []any) {
		if len(r) == 2 {
			c.add(anyInt(r[0]), anyFloat(r[1]))
		}
	})
	if err != nil {
		return err
	}
	return c.done()
}

func (e *serveEnv) baseline(ctx context.Context) (*vector.Batch, error) {
	return e.d.QueryContext(ctx, e.query)
}

func (e *serveEnv) overheadMetric() string { return "server.overhead_ms" }

func (e *serveEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.stop()
}

// --- dist_rows ---

const (
	distRows = 20000
	// Two shards, not four: four daemons on two cores measure the scheduler.
	distShards      = 2
	distInsertBatch = 500 // rows per scatter INSERT
)

type distInputs struct {
	seed    int64
	inserts []string // the scatter INSERT statements, in order
	feats   [][]float32
	oracle  *oracle
}

func prepareDist(seed int64) *distInputs {
	in := &distInputs{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	feats := make([][]float32, distRows)
	for lo := 0; lo < distRows; lo += distInsertBatch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO ev VALUES ")
		for i := lo; i < lo+distInsertBatch; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d", i)
			feats[i] = make([]float32, 4)
			for f := range feats[i] {
				v := rng.Float64()
				feats[i][f] = float32(v)
				sb.WriteString(", " + strconv.FormatFloat(v, 'g', -1, 64))
			}
			sb.WriteByte(')')
		}
		in.inserts = append(in.inserts, sb.String())
	}
	in.feats = feats
	in.oracle = newOracle(newModel(seed, 32, 2), feats)
	return in
}

const distCreate = "CREATE TABLE ev (id INTEGER, f1 DOUBLE, f2 DOUBLE, f3 DOUBLE, f4 DOUBLE)"

type distEnv struct {
	embeddedEnv // d is the coordinator's database
	in          *distInputs
	co          *dist.Coordinator
	shards      []*db.Database
	stops       []func()
	single      *db.Database // the same rows on one node, built on first baseline
}

// load creates ev on d and inserts every row through the SQL front door.
func (in *distInputs) load(d *db.Database, createSuffix string) error {
	if err := d.Exec(distCreate + createSuffix); err != nil {
		return err
	}
	for _, stmt := range in.inserts {
		if err := d.Exec(stmt); err != nil {
			return err
		}
	}
	return nil
}

func (in *distInputs) setup(s scope) (env, error) {
	e := &distEnv{in: in}
	end := s.span("server start")
	var addrs []string
	for i := 0; i < distShards; i++ {
		sh := db.Open(dbOptions())
		addr, stop, err := startServer(sh)
		if err != nil {
			e.close()
			return nil, err
		}
		e.shards = append(e.shards, sh)
		e.stops = append(e.stops, stop)
		addrs = append(addrs, addr)
	}
	coord := db.Open(dbOptions())
	e.co = dist.New(coord, addrs)
	end()

	end = s.span("table build")
	err := in.load(coord, " SHARD BY (id)")
	end()
	s.count("loaded_rows", distRows)
	if err != nil {
		e.close()
		return nil, err
	}
	m := newModel(in.seed, 32, 2)
	end = s.span("db.RegisterModel")
	_, err = coord.RegisterModel(m, relmodel.ExportOptions{Partitions: partitions})
	end()
	if err == nil {
		end = s.span("dist.ReplicateModel")
		err = e.co.ReplicateModel(context.Background(), m.Name)
		end()
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.embeddedEnv = embeddedEnv{d: coord, m: m, feats: in.feats,
		query: "SELECT id, prediction FROM ev" + predictClause(m.Name, []string{"f1", "f2", "f3", "f4"}),
		check: func(b *vector.Batch, full bool) error { return checkRows(in.oracle, b, full) }}
	return e, nil
}

func (e *distEnv) engines() []*db.Database { return append([]*db.Database{e.d}, e.shards...) }

func (e *distEnv) baseline(ctx context.Context) (*vector.Batch, error) {
	if e.single == nil {
		d := db.Open(dbOptions())
		if err := e.in.load(d, ""); err != nil {
			return nil, err
		}
		if _, err := d.RegisterModel(newModel(e.in.seed, 32, 2), relmodel.ExportOptions{Partitions: partitions}); err != nil {
			return nil, err
		}
		e.single = d
	}
	return e.single.QueryContext(ctx, e.query)
}

func (e *distEnv) overheadMetric() string { return "dist.overhead_ms" }

func (e *distEnv) close() {
	if e.co != nil {
		e.co.Close()
	}
	for _, stop := range e.stops {
		stop()
	}
}
