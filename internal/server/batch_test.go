package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/infersched"
	"indbml/internal/nn"
	"indbml/internal/server/client"
	"indbml/internal/workload"
)

// newBatchTestDB is newTestDB with control over the engine options — the
// batching tests stretch the coalesce window so concurrent submissions
// reliably land in one super-batch.
func newBatchTestDB(t *testing.T, nRows, hidden int, opts db.Options) *db.Database {
	t.Helper()
	if opts.DefaultPartitions == 0 {
		opts.DefaultPartitions = 4
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = 4
	}
	d := db.Open(opts)
	tbl, _ := workload.IrisTable("iris", nRows, 4)
	d.RegisterTable(tbl)
	model := &nn.Model{Name: "iris_model", Layers: []nn.Layer{
		nn.NewDense(4, hidden, nn.Tanh),
		nn.NewDense(hidden, hidden, nn.Tanh),
		nn.NewDense(hidden, 3, nn.Sigmoid),
	}}
	workload.SeedDense(model, 42)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	return d
}

const batchJoinQuery = "SELECT COUNT(*) AS n, AVG(prediction_0) AS p FROM iris " +
	"MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width)"

// TestBatchingEndToEnd is the scheduler's acceptance scenario over the wire:
// 8 concurrent clients run the same MODEL JOIN against a 4-slot server, and
// afterwards the system tables must show coalesced batches (requests > 1),
// the queries flagged batched, the STATUS batcher line, the BATCHER report,
// and the scheduler metrics. Under -race this also proves the submit /
// dispatch / cancel paths clean.
func TestBatchingEndToEnd(t *testing.T) {
	d := newBatchTestDB(t, 4000, 32, db.Options{
		InferSched: infersched.Config{MaxWait: 5 * time.Millisecond},
	})
	s := startServer(t, d, Config{QuerySlots: 4, QueueDepth: 32, IdleTimeout: time.Minute})

	// A dedicated session scans the system tables continuously while the
	// load runs, so the snapshot path races the scheduler's publishing.
	scanStop := make(chan struct{})
	scanErr := make(chan error, 1)
	scanner := dial(t, s)
	go func() {
		for {
			select {
			case <-scanStop:
				scanErr <- nil
				return
			default:
			}
			for _, q := range []string{
				"SELECT * FROM system.inference_batches",
				"SELECT batched FROM system.queries",
			} {
				rows, err := scanner.Query(q)
				if err != nil {
					scanErr <- err
					return
				}
				if err := rows.Drain(); err != nil {
					scanErr <- err
					return
				}
			}
		}
	}()

	const clients = 8
	runRound := func() {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := client.Dial(s.Addr().String())
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				for round := 0; round < 3; round++ {
					rows, err := c.Query(batchJoinQuery)
					if err != nil {
						errs <- err
						return
					}
					if err := rows.Drain(); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	probe := dial(t, s)
	coalesced := func() int {
		rows, err := probe.Query("SELECT requests FROM system.inference_batches")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for row := rows.Next(); row != nil; row = rows.Next() {
			if req, ok := row[0].(int32); ok && req > 1 {
				n++
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Coalescing is timing-dependent; with a 5ms window and 8 clients on 4
	// slots one round is nearly always enough, but allow a few.
	got := 0
	for attempt := 0; attempt < 5 && got == 0; attempt++ {
		runRound()
		got = coalesced()
	}
	if got == 0 {
		t.Fatal("no coalesced batch (requests > 1) in system.inference_batches after 5 rounds")
	}
	close(scanStop)
	if err := <-scanErr; err != nil {
		t.Fatalf("concurrent system-table scanner: %v", err)
	}

	// The flight recorder must flag the MODEL JOIN statements as batched.
	rows, err := probe.Query("SELECT batched, sql FROM system.queries")
	if err != nil {
		t.Fatal(err)
	}
	batchedYes := 0
	for row := rows.Next(); row != nil; row = rows.Next() {
		if b, _ := row[0].(string); b == "yes" {
			batchedYes++
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if batchedYes == 0 {
		t.Fatal("no query in system.queries carries batched=yes")
	}

	status, err := probe.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "batcher:") {
		t.Fatalf("STATUS missing batcher line:\n%s", status)
	}

	rep, err := probe.Batcher()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "batches:") || !strings.Contains(rep, "coalesce_wait:") {
		t.Fatalf("BATCHER report incomplete:\n%s", rep)
	}
	if !strings.Contains(rep, "iris_model") {
		t.Fatalf("BATCHER report does not mention the live queue:\n%s", rep)
	}

	metrics, err := probe.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "vectordb_infer_batches_total") {
		t.Fatal("metrics page missing vectordb_infer_batches_total")
	}
}

// TestBatchingMidBatchCancellation cancels one query out of a coalesced
// flight: several clients run a slow MODEL JOIN concurrently, one with a
// deadline far below the query's natural runtime. The doomed query must come
// back canceled without corrupting the batch its neighbors are riding in —
// their results and the server itself must stay healthy.
func TestBatchingMidBatchCancellation(t *testing.T) {
	d := newBatchTestDB(t, 8000, 128, db.Options{
		InferSched: infersched.Config{MaxWait: 5 * time.Millisecond},
	})
	s := startServer(t, d, Config{QuerySlots: 4, QueueDepth: 32, IdleTimeout: time.Minute})

	const survivors = 3
	var wg sync.WaitGroup
	errs := make(chan error, survivors+1)
	for i := 0; i < survivors; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rows, err := c.Query(batchJoinQuery)
			if err != nil {
				errs <- err
				return
			}
			n := 0
			for row := rows.Next(); row != nil; row = rows.Next() {
				n++
				if cnt, ok := row[0].(int64); ok && cnt != 8000 {
					errs <- errCount(cnt)
					return
				}
			}
			if err := rows.Err(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(s.Addr().String())
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		rows, err := c.QueryTimeout(batchJoinQuery, 20*time.Millisecond)
		if err == nil {
			err = rows.Drain()
		}
		if err == nil {
			// The query finishing under 20ms means the machine outran the
			// deadline; that is not a failure of the cancel path.
			t.Log("deadline query finished before its 20ms budget")
			return
		}
		if !client.IsCanceled(err) {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	// The server must still serve correct answers after the cancellation.
	c := dial(t, s)
	rows, err := c.Query(batchJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for row := rows.Next(); row != nil; row = rows.Next() {
		n, _ = row[0].(int64)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 8000 {
		t.Fatalf("post-cancel query counted %d rows, want 8000", n)
	}
}

// errCount wraps a wrong COUNT(*) into an error for the channel.
type errCount int64

func (e errCount) Error() string {
	return fmt.Sprintf("MODEL JOIN COUNT(*) = %d, want 8000", int64(e))
}
