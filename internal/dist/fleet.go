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
	schema := t.Schema()
	locals, err := t.local.Snapshot()
	if err != nil {
		return nil, err
	}
	out := make([]*vector.Batch, 0, len(locals))
	for _, b := range locals {
		out = append(out, tagged(schema, "coordinator", b.Vecs, b.Len()))
	}
	for _, p := range t.co.shards {
		out = t.appendShard(out, schema, p)
	}
	return out, nil
}

// appendShard fetches one shard's rows batch by batch, matching columns by
// name and type so the view tolerates column drift between releases (an
// unmatched column reads NULL). Errors are swallowed: fleet observability
// must not depend on every shard being up.
func (t fleetTable) appendShard(out []*vector.Batch, schema *types.Schema, p *shardPool) []*vector.Batch {
	c, err := p.get()
	if err != nil {
		return out
	}
	rows, err := c.Query("SELECT * FROM " + t.local.Name())
	if err != nil {
		p.release(c, err)
		return out
	}
	base := t.local.Schema()
	colIdx := make([]int, base.Len())
	for i := range colIdx {
		colIdx[i] = -1
		for j, rc := range rows.Columns() {
			if rc.Name == base.Col(i).Name && rc.Type == base.Col(i).Type {
				colIdx[i] = j
				break
			}
		}
	}
	label := p.label()
	for {
		b, err := rows.NextBatch()
		if b == nil || err != nil {
			break
		}
		vecs := make([]*vector.Vector, base.Len())
		for i, j := range colIdx {
			if j >= 0 {
				vecs[i] = b.Vecs[j]
				continue
			}
			vecs[i] = vector.New(base.Col(i).Type, b.Len())
			vecs[i].Resize(b.Len())
			for r := 0; r < b.Len(); r++ {
				vecs[i].SetNull(r)
			}
		}
		out = append(out, tagged(schema, label, vecs, b.Len()))
	}
	p.release(c, rows.Err())
	return out
}

// tagged prefixes n rows of vecs with the fleet view's shard column.
func tagged(schema *types.Schema, label string, vecs []*vector.Vector, n int) *vector.Batch {
	shard := vector.New(types.String, n)
	shard.Resize(n)
	labels := shard.Strings()
	for r := range labels {
		labels[r] = label
	}
	b := &vector.Batch{Schema: schema, Vecs: append([]*vector.Vector{shard}, vecs...)}
	b.SetLen(n)
	return b
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
