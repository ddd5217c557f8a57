package flight

import (
	"fmt"
	"time"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/metrics"
)

// Virtual system tables over the recorder and the metrics registry. Each
// Snapshot materializes a point-in-time view into batches; the scan layer
// streams those without further copies.

var queriesSchema = types.NewSchema(
	types.Column{Name: "query_id", Type: types.Int64},
	types.Column{Name: "origin_qid", Type: types.Int64}, // coordinator query ID for shard fragments, 0 otherwise
	types.Column{Name: "ts", Type: types.Int64},         // statement start, unix nanoseconds
	types.Column{Name: "kind", Type: types.String},
	types.Column{Name: "approach", Type: types.String},
	types.Column{Name: "device", Type: types.String},
	types.Column{Name: "fingerprint", Type: types.String}, // 16 hex digits
	types.Column{Name: "latency_ns", Type: types.Int64},
	types.Column{Name: "queue_wait_ns", Type: types.Int64},
	types.Column{Name: "rows_out", Type: types.Int64},
	types.Column{Name: "rows_in", Type: types.Int64},
	types.Column{Name: "bytes_scanned", Type: types.Int64},
	types.Column{Name: "blocks_pruned", Type: types.Int64},
	types.Column{Name: "cache", Type: types.String},
	types.Column{Name: "batched", Type: types.String},
	types.Column{Name: "alloc_bytes", Type: types.Int64},
	types.Column{Name: "error", Type: types.String},
	types.Column{Name: "sql", Type: types.String},
)

// QueriesTable exposes the recorder ring as system.queries, one row per
// retained statement.
func QueriesTable(r *Recorder) storage.VirtualTable {
	return storage.NewVirtualTable("system.queries", queriesSchema, r.fillQueries)
}

func (r *Recorder) fillQueries(b *storage.BatchBuilder) error {
	for _, s := range r.Snapshot() {
		b.Append(
			types.Int64Datum(int64(s.ID)),
			types.Int64Datum(int64(s.Origin)),
			types.Int64Datum(s.Start.UnixNano()),
			types.StringDatum(s.Kind),
			types.StringDatum(s.Approach),
			types.StringDatum(s.Device),
			types.StringDatum(Hex(s.Fingerprint)),
			types.Int64Datum(s.LatencyNS),
			types.Int64Datum(s.QueueWaitNS),
			types.Int64Datum(s.RowsOut),
			types.Int64Datum(s.RowsIn),
			types.Int64Datum(s.BytesScanned),
			types.Int64Datum(s.BlocksPruned),
			types.StringDatum(s.Cache),
			types.StringDatum(s.Batched),
			types.Int64Datum(s.AllocBytes),
			types.StringDatum(s.Error),
			types.StringDatum(s.SQL),
		)
	}
	return nil
}

var operatorsSchema = types.NewSchema(
	types.Column{Name: "query_id", Type: types.Int64},
	types.Column{Name: "origin_qid", Type: types.Int64}, // coordinator query ID for shard fragments, 0 otherwise
	types.Column{Name: "op_seq", Type: types.Int32},
	types.Column{Name: "depth", Type: types.Int32},
	types.Column{Name: "op", Type: types.String},
	types.Column{Name: "counter", Type: types.String}, // "" = the operator's base row
	types.Column{Name: "wall_ns", Type: types.Int64},
	types.Column{Name: "rows", Type: types.Int64},
	types.Column{Name: "batches", Type: types.Int64},
	types.Column{Name: "value", Type: types.Int64},
)

// OperatorsTable exposes the folded span trees as system.query_operators.
// Every operator contributes one base row (counter = ”) carrying
// wall_ns/rows/batches, plus one row per named counter carrying its value
// — so both "sum wall time by operator" and "sum sgemm_ns across queries"
// are single-table aggregates.
func OperatorsTable(r *Recorder) storage.VirtualTable {
	return storage.NewVirtualTable("system.query_operators", operatorsSchema, r.fillOperators)
}

func (r *Recorder) fillOperators(b *storage.BatchBuilder) error {
	for _, s := range r.Snapshot() {
		for _, op := range s.Ops {
			b.Append(
				types.Int64Datum(int64(s.ID)),
				types.Int64Datum(int64(s.Origin)),
				types.Int32Datum(int32(op.Seq)),
				types.Int32Datum(int32(op.Depth)),
				types.StringDatum(op.Op),
				types.StringDatum(""),
				types.Int64Datum(op.WallNS),
				types.Int64Datum(op.Rows),
				types.Int64Datum(op.Batches),
				types.Int64Datum(0),
			)
			for _, c := range op.Counters {
				b.Append(
					types.Int64Datum(int64(s.ID)),
					types.Int64Datum(int64(s.Origin)),
					types.Int32Datum(int32(op.Seq)),
					types.Int32Datum(int32(op.Depth)),
					types.StringDatum(op.Op),
					types.StringDatum(c.Name),
					types.Int64Datum(0),
					types.Int64Datum(0),
					types.Int64Datum(0),
					types.Int64Datum(c.Value),
				)
			}
		}
	}
	return nil
}

// Hex renders a statement fingerprint as the 16 lowercase hex digits used
// across system.queries, system.active_queries, system.statement_stats and
// the slow-query log, so log lines and table rows join on equal strings.
func Hex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

var activeSchema = types.NewSchema(
	types.Column{Name: "query_id", Type: types.Int64},
	types.Column{Name: "origin_qid", Type: types.Int64},
	types.Column{Name: "session", Type: types.String},
	types.Column{Name: "state", Type: types.String}, // queued, running, killed
	types.Column{Name: "ts", Type: types.Int64},     // admission time, unix nanoseconds
	types.Column{Name: "elapsed_ns", Type: types.Int64},
	types.Column{Name: "rows_scanned", Type: types.Int64},
	types.Column{Name: "bytes_scanned", Type: types.Int64},
	types.Column{Name: "phase", Type: types.String}, // operator currently dominating busy time
	types.Column{Name: "fingerprint", Type: types.String},
	types.Column{Name: "sql", Type: types.String},
)

// ActiveTable exposes the live registry as system.active_queries: one row
// per in-flight statement, with progress sampled from the statement's
// atomic span counters at scan time — repeated SELECTs over this table
// watch rows_scanned grow while the statement runs.
func ActiveTable(r *Recorder) storage.VirtualTable {
	return storage.NewVirtualTable("system.active_queries", activeSchema, r.fillActive)
}

func (r *Recorder) fillActive(b *storage.BatchBuilder) error {
	now := time.Now()
	for _, q := range r.Live() {
		rows, bytes, phase := q.Progress()
		b.Append(
			types.Int64Datum(int64(q.ID())),
			types.Int64Datum(int64(q.Origin())),
			types.StringDatum(q.Session()),
			types.StringDatum(q.State()),
			types.Int64Datum(q.Start().UnixNano()),
			types.Int64Datum(int64(now.Sub(q.Start()))),
			types.Int64Datum(rows),
			types.Int64Datum(bytes),
			types.StringDatum(phase),
			types.StringDatum(Hex(q.Fingerprint())),
			types.StringDatum(q.SQL()),
		)
	}
	return nil
}

// statementStatsSchema: one row per (fingerprint, approach, device) — the
// cumulative workload profile. The latency histogram is flattened into
// le_* columns (upper-bound-inclusive, cumulative-free counts) matching
// LatencyBucketsNS.
var statementStatsSchema = types.NewSchema(
	types.Column{Name: "fingerprint", Type: types.String},
	types.Column{Name: "approach", Type: types.String},
	types.Column{Name: "device", Type: types.String},
	types.Column{Name: "calls", Type: types.Int64},
	types.Column{Name: "errors", Type: types.Int64},
	types.Column{Name: "total_latency_ns", Type: types.Int64},
	types.Column{Name: "min_latency_ns", Type: types.Int64},
	types.Column{Name: "max_latency_ns", Type: types.Int64},
	types.Column{Name: "total_queue_wait_ns", Type: types.Int64},
	types.Column{Name: "rows_in", Type: types.Int64},
	types.Column{Name: "rows_out", Type: types.Int64},
	types.Column{Name: "bytes_scanned", Type: types.Int64},
	types.Column{Name: "cache_hit_fraction", Type: types.Float64}, // -1: never consulted
	types.Column{Name: "batched_fraction", Type: types.Float64},   // -1: never inferred
	types.Column{Name: "le_10us", Type: types.Int64},
	types.Column{Name: "le_100us", Type: types.Int64},
	types.Column{Name: "le_1ms", Type: types.Int64},
	types.Column{Name: "le_10ms", Type: types.Int64},
	types.Column{Name: "le_100ms", Type: types.Int64},
	types.Column{Name: "le_1s", Type: types.Int64},
	types.Column{Name: "le_10s", Type: types.Int64},
	types.Column{Name: "le_inf", Type: types.Int64},
	types.Column{Name: "sql", Type: types.String}, // normalized exemplar
)

// StatementStatsTable exposes the cumulative statement-shape statistics as
// system.statement_stats. Unlike system.queries this is not a ring: rows
// accumulate for the life of the process, so it answers workload-level
// questions ("which statement shape dominates latency", "what is the
// modeljoin cpu-vs-gpu crossover for this shape") long after individual
// flight records have been overwritten.
func StatementStatsTable(r *Recorder) storage.VirtualTable {
	return storage.NewVirtualTable("system.statement_stats", statementStatsSchema, r.fillStatementStats)
}

func (rec *Recorder) fillStatementStats(b *storage.BatchBuilder) error {
	for _, r := range rec.stats.Snapshot() {
		vals := []types.Datum{
			types.StringDatum(Hex(r.Fingerprint)),
			types.StringDatum(r.Approach),
			types.StringDatum(r.Device),
			types.Int64Datum(r.Calls),
			types.Int64Datum(r.Errors),
			types.Int64Datum(r.TotalLatencyNS),
			types.Int64Datum(r.MinLatencyNS),
			types.Int64Datum(r.MaxLatencyNS),
			types.Int64Datum(r.TotalQueueNS),
			types.Int64Datum(r.RowsIn),
			types.Int64Datum(r.RowsOut),
			types.Int64Datum(r.BytesScanned),
			types.Float64Datum(r.CacheHitFraction),
			types.Float64Datum(r.BatchedFraction),
		}
		for _, c := range r.Buckets {
			vals = append(vals, types.Int64Datum(c))
		}
		vals = append(vals, types.StringDatum(r.NormSQL))
		b.Append(vals...)
	}
	return nil
}

var metricsSchema = types.NewSchema(
	types.Column{Name: "name", Type: types.String},
	types.Column{Name: "kind", Type: types.String},
	types.Column{Name: "label", Type: types.String},
	types.Column{Name: "value", Type: types.Float64},
	types.Column{Name: "exemplar_query_id", Type: types.Int64},
)

// MetricsTable exposes a metrics registry as system.metrics, one row per
// exposition sample, with histogram buckets carrying their exemplar query
// IDs — the in-database end of the "latency spike → offending query"
// workflow.
func MetricsTable(reg *metrics.Registry) storage.VirtualTable {
	return storage.NewVirtualTable("system.metrics", metricsSchema, func(b *storage.BatchBuilder) error {
		for _, s := range reg.Samples() {
			b.Append(
				types.StringDatum(s.Name),
				types.StringDatum(s.Kind),
				types.StringDatum(s.Label),
				types.Float64Datum(s.Value),
				types.Int64Datum(int64(s.ExemplarQueryID)),
			)
		}
		return nil
	})
}
