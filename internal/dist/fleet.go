package dist

import (
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// fleetTable wraps one of the flight recorder's system tables
// (system.queries, system.active_queries) with a fleet-wide view: the
// coordinator's own rows tagged shard='coordinator', unioned with every
// shard's rows fetched over the wire and tagged shard='shard<i>'. Shard
// fragment rows carry the coordinator query ID in origin_qid, so
//
//	SELECT shard, query_id, latency_ns FROM system.queries
//	WHERE origin_qid = <id>
//
// shows exactly where one distributed query's time went. An unreachable
// shard contributes no rows rather than failing the whole view.
type fleetTable struct {
	co    *Coordinator
	local storage.VirtualTable
}

func (t fleetTable) Name() string { return t.local.Name() }

func (t fleetTable) Schema() *types.Schema {
	base := t.local.Schema()
	cols := make([]types.Column, 0, base.Len()+1)
	cols = append(cols, types.Column{Name: "shard", Type: types.String})
	for i := 0; i < base.Len(); i++ {
		cols = append(cols, base.Col(i))
	}
	return types.NewSchema(cols...)
}

func (t fleetTable) Snapshot() ([]*vector.Batch, error) {
	base := t.local.Schema()
	out := storage.NewBatchBuilder(t.Schema())

	locals, err := t.local.Snapshot()
	if err != nil {
		return nil, err
	}
	row := make([]types.Datum, base.Len()+1)
	for _, b := range locals {
		for r := 0; r < b.Len(); r++ {
			row[0] = types.StringDatum("coordinator")
			for c := 0; c < base.Len(); c++ {
				row[c+1] = b.Vecs[c].Datum(r)
			}
			out.Append(row...)
		}
	}

	for _, p := range t.co.shards {
		t.appendShard(out, p, base)
	}
	return out.Batches(), nil
}

// appendShard fetches one shard's rows, matching columns by name so the
// view tolerates column-order drift between releases. Errors are swallowed:
// fleet observability must not depend on every shard being up.
func (t fleetTable) appendShard(out *storage.BatchBuilder, p *shardPool, base *types.Schema) {
	c, err := p.get()
	if err != nil {
		return
	}
	rows, err := c.Query("SELECT * FROM " + t.local.Name())
	if err != nil {
		p.release(c, err)
		return
	}
	cols := rows.Columns()
	colIdx := make([]int, base.Len())
	for i := 0; i < base.Len(); i++ {
		colIdx[i] = -1
		for j, rc := range cols {
			if rc.Name == base.Col(i).Name {
				colIdx[i] = j
				break
			}
		}
	}
	label := p.label()
	row := make([]types.Datum, base.Len()+1)
	for {
		vals := rows.Next()
		if vals == nil {
			break
		}
		row[0] = types.StringDatum(label)
		for i := 0; i < base.Len(); i++ {
			if j := colIdx[i]; j >= 0 && j < len(vals) {
				row[i+1] = boxedDatum(vals[j], base.Col(i).Type)
			} else {
				row[i+1] = types.NullDatum(base.Col(i).Type)
			}
		}
		out.Append(row...)
	}
	p.release(c, rows.Err())
}

// shardsSchema describes system.shards, the fleet health table: one row per
// configured shard with liveness (an active STATUS probe at scan time),
// connection-pool state, cumulative fragment traffic and the last fragment
// error.
var shardsSchema = types.NewSchema(
	types.Column{Name: "shard_id", Type: types.Int32},
	types.Column{Name: "addr", Type: types.String},
	types.Column{Name: "reachable", Type: types.Bool},
	types.Column{Name: "idle_conns", Type: types.Int32},
	types.Column{Name: "fragments", Type: types.Int64},
	types.Column{Name: "fragment_errors", Type: types.Int64},
	types.Column{Name: "last_error", Type: types.String},
	types.Column{Name: "last_error_age_ns", Type: types.Int64},
)

// fillShards serves the coordinator-local system.shards virtual table.
func (co *Coordinator) fillShards(out *storage.BatchBuilder) error {
	for _, p := range co.shards {
		lastErr, age, hasErr := p.lastError()
		errDatum := types.NullDatum(types.String)
		ageDatum := types.NullDatum(types.Int64)
		if hasErr {
			errDatum = types.StringDatum(lastErr)
			ageDatum = types.Int64Datum(int64(age))
		}
		out.Append(
			types.Int32Datum(int32(p.id)),
			types.StringDatum(p.addr),
			types.BoolDatum(p.probe()),
			types.Int32Datum(int32(p.idleConns())),
			types.Int64Datum(p.fragments.Load()),
			types.Int64Datum(p.fragErrs.Load()),
			errDatum,
			ageDatum,
		)
	}
	return nil
}
