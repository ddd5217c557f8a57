package dist

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/server"
)

// TestRemoteExchangeRetainsSourceBatches: RemoteExchange forwards each
// source batch over a channel and asks the source for the next one at once,
// so shardSource must hand over batches the cursor never touches again. The
// test keeps every batch a 2-shard exchange emits until end of stream and
// only then checks them against the shards' rows.
func TestRemoteExchangeRetainsSourceBatches(t *testing.T) {
	const perShard = 3*vector.Size + 100
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
	)
	var sources []exec.RemoteSource
	for sh := 0; sh < 2; sh++ {
		d := db.Open(db.Options{DefaultPartitions: 2})
		if err := d.Exec("CREATE TABLE t (id BIGINT, v DOUBLE, s VARCHAR)"); err != nil {
			t.Fatal(err)
		}
		tbl, _ := d.Table("t")
		b := vector.NewBatch(tbl.Schema, perShard)
		for i := 0; i < perShard; i++ {
			id := int64(sh*perShard + i)
			if err := b.AppendRow(types.Int64Datum(id), types.Float64Datum(float64(id)/7), types.StringDatum(fmt.Sprint("row", id))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Append(b); err != nil {
			t.Fatal(err)
		}
		pool := &shardPool{id: sh, addr: serve(t, d)}
		t.Cleanup(pool.closeIdle)
		sources = append(sources, &shardSource{pool: pool, sqlText: "SELECT id, v, s FROM t", schema: schema, ctx: context.Background()})
	}

	ex, err := exec.NewRemoteExchange(schema, sources)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	var kept []*vector.Batch
	for {
		b, err := ex.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		kept = append(kept, b)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}

	seen := make([]bool, 2*perShard)
	for _, b := range kept {
		ids, vs, ss := b.Vecs[0].Int64s(), b.Vecs[1].Float64s(), b.Vecs[2].Strings()
		for r, id := range ids {
			if id < 0 || id >= int64(len(seen)) || seen[id] {
				t.Fatalf("id %d out of range or repeated", id)
			}
			seen[id] = true
			if vs[r] != float64(id)/7 || ss[r] != fmt.Sprint("row", id) {
				t.Fatalf("row %d = (%v, %q): overwritten after hand-over", id, vs[r], ss[r])
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("id %d never arrived", id)
		}
	}
}

func serve(t *testing.T, d *db.Database) string {
	t.Helper()
	s := server.New(d, server.Config{QuerySlots: 2, QueueDepth: 4, IdleTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}
