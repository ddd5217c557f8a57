package db

import (
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
)

var modelCacheSchema = types.NewSchema(
	types.Column{Name: "model", Type: types.String},
	types.Column{Name: "device", Type: types.String},
	types.Column{Name: "version", Type: types.Int64},
	types.Column{Name: "lru_slot", Type: types.Int32},
)

// fillModelCache serves system.model_cache from the cross-query model
// artifact cache: one row per live entry plus the LRU position, so "why did
// this query miss?" is answerable with a SELECT instead of a debugger.
func (d *Database) fillModelCache(b *storage.BatchBuilder) error {
	for _, e := range d.modelCache.entriesSnapshot() {
		b.Append(
			types.StringDatum(e.model),
			types.StringDatum(e.device),
			types.Int64Datum(int64(e.version)),
			types.Int32Datum(int32(e.slot)),
		)
	}
	return nil
}

var inferBatchesSchema = types.NewSchema(
	types.Column{Name: "batch_id", Type: types.Int64},
	types.Column{Name: "ts", Type: types.Int64}, // unix nanoseconds at launch
	types.Column{Name: "model", Type: types.String},
	types.Column{Name: "device", Type: types.String},
	types.Column{Name: "requests", Type: types.Int32},
	types.Column{Name: "rows", Type: types.Int32},
	types.Column{Name: "wait_ns", Type: types.Int64},
	types.Column{Name: "run_ns", Type: types.Int64},
)

// fillInferBatches serves system.inference_batches from the inference
// scheduler's recent super-batches: one row per packed forward pass, so
// "did my concurrent queries actually coalesce?" is a SELECT
// (requests > 1 means cross-request coalescing happened).
func (d *Database) fillInferBatches(b *storage.BatchBuilder) error {
	for _, s := range d.sched.BatchSnapshot() {
		b.Append(
			types.Int64Datum(int64(s.ID)),
			types.Int64Datum(s.Start.UnixNano()),
			types.StringDatum(s.Model),
			types.StringDatum(s.Device),
			types.Int32Datum(int32(s.Requests)),
			types.Int32Datum(int32(s.Rows)),
			types.Int64Datum(s.WaitNS),
			types.Int64Datum(s.RunNS),
		)
	}
	return nil
}
