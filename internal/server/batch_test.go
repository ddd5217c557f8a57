package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"indbml/internal/engine/db"
	"indbml/internal/infersched"
	"indbml/internal/server/client"
)

// parked is an inference Runner whose passes wait inside RunPacked, after
// signalling entered, until release is closed.
type parked struct {
	entered chan<- struct{}
	release <-chan struct{}
}

func (p *parked) InputDim() int  { return 1 }
func (p *parked) OutputDim() int { return 1 }
func (p *parked) RunPacked(int, []float32, []float32) (time.Duration, error) {
	p.entered <- struct{}{}
	<-p.release
	return 0, nil
}

// fillCPUGate occupies every in-flight slot of d's "cpu" device with a
// parked pass, so MODEL JOIN batches pend in the scheduler, and returns the
// function that lets those passes finish. Once it runs, the pending batches
// leave in super-batches of up to MaxBatchRows rows.
func fillCPUGate(t *testing.T, d *db.Database) (release func()) {
	t.Helper()
	entered := make(chan struct{}, infersched.MaxInFlight)
	rel := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < infersched.MaxInFlight; i++ {
		r := &parked{entered: entered, release: rel}
		label := infersched.Label{Model: fmt.Sprintf("parked%d", i), Device: "cpu"}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.InferSched().Submit(context.Background(), label, r, 1, make([]float32, 1), make([]float32, 1)); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < infersched.MaxInFlight; i++ {
		<-entered
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(rel)
			wg.Wait()
		})
	}
	t.Cleanup(release)
	return release
}

// waitPending waits until at least n inference requests pend in d's
// scheduler (the depth= field of its STATUS line).
func waitPending(t *testing.T, d *db.Database, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		line := d.InferSched().StatusLine()
		var depth int
		if i := strings.Index(line, " depth="); i >= 0 {
			fmt.Sscanf(line[i+len(" depth="):], "%d", &depth)
		}
		if depth >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler %s, want depth ≥ %d", line, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

const batchJoinQuery = "SELECT COUNT(*) AS n, AVG(prediction_0) AS p FROM iris " +
	"MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width)"

// TestBatchingEndToEnd is the scheduler's acceptance scenario over the wire:
// 8 concurrent clients run the same MODEL JOIN against a 4-slot server
// while parked passes hold the CPU's device gate, so the admitted
// statements' batches pend together: the BATCHER report shows their live
// queue, and once the gate frees the system tables must show coalesced
// batches (requests > 1), the queries flagged batched, the STATUS batcher
// line, the BATCHER report, and the scheduler metrics. Under -race this
// also proves the submit / combine / cancel paths clean.
func TestBatchingEndToEnd(t *testing.T) {
	d := newTestDB(t, 4000, 32)
	s := startServer(t, d, Config{QuerySlots: 4, QueueDepth: 32, IdleTimeout: time.Minute})
	release := fillCPUGate(t, d)

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

	// The BATCHER verb bypasses admission, so it answers while every slot
	// is held by a statement whose batches pend behind the parked passes.
	probe := dial(t, s)
	waitPending(t, d, 2)
	rep, err := probe.Batcher()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "queue model=iris_model device=cpu depth=") {
		t.Fatalf("BATCHER report does not show the live queue:\n%s", rep)
	}
	release()
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	rows, err := probe.Query("SELECT requests FROM system.inference_batches WHERE model = 'iris_model'")
	if err != nil {
		t.Fatal(err)
	}
	coalesced := 0
	for row := rows.Next(); row != nil; row = rows.Next() {
		if req, ok := row[0].(int32); ok && req > 1 {
			coalesced++
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if coalesced == 0 {
		t.Fatal("no coalesced batch (requests > 1) in system.inference_batches")
	}
	close(scanStop)
	if err := <-scanErr; err != nil {
		t.Fatalf("concurrent system-table scanner: %v", err)
	}

	// The flight recorder must flag the MODEL JOIN statements as batched.
	rows, err = probe.Query("SELECT batched, sql FROM system.queries")
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

	if rep, err = probe.Batcher(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "batches:") || !strings.Contains(rep, "coalesce_wait:") {
		t.Fatalf("BATCHER report incomplete:\n%s", rep)
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
// flight: several clients run a slow MODEL JOIN concurrently, their first
// batches pending together behind parked passes, one with a deadline far
// below the query's natural runtime. The doomed query must come back
// canceled without corrupting the batch its neighbors are riding in — their
// results and the server itself must stay healthy.
func TestBatchingMidBatchCancellation(t *testing.T) {
	d := newTestDB(t, 8000, 128)
	s := startServer(t, d, Config{QuerySlots: 4, QueueDepth: 32, IdleTimeout: time.Minute})
	release := fillCPUGate(t, d)

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
	waitPending(t, d, 4)
	release()
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
