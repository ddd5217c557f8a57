package flight

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/trace"
)

func finishOne(r *Recorder, sqlText string) *Flight {
	fl := begin(r, sqlText, "select", "sql")
	fl.Finish(nil)
	return fl
}

// TestRingWraparound: the ring keeps the newest capacity summaries and the
// total published count keeps climbing past it.
func TestRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	if r.Capacity() != 4 {
		t.Fatalf("capacity = %d, want 4", r.Capacity())
	}
	for i := 0; i < 10; i++ {
		finishOne(r, fmt.Sprintf("q%d", i))
	}
	if got := r.Recorded(); got != 10 {
		t.Errorf("recorded = %d, want 10", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(snap))
	}
	for i, s := range snap {
		if want := uint64(7 + i); s.ID != want {
			t.Errorf("snapshot[%d].ID = %d, want %d (oldest retained is capacity back)", i, s.ID, want)
		}
	}
}

// TestDefaultSize: size <= 0 selects the default capacity.
func TestDefaultSize(t *testing.T) {
	if got := NewRecorder(0).Capacity(); got != DefaultSize {
		t.Errorf("capacity = %d, want %d", got, DefaultSize)
	}
}

// TestSummaryFields: kind/approach, queue wait, SQL truncation,
// error capture, latency stamping.
func TestSummaryFields(t *testing.T) {
	r := NewRecorder(8)
	long := strings.Repeat("x", maxSQLLen+100)
	fl := begin(r, long, "insert", "pyudf")
	fl.SetQueueWait(3 * time.Millisecond)
	fl.AddRowsOut(7)
	fl.AddRowsOut(2)
	fl.Finish(errors.New("boom"))

	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot length = %d, want 1", len(snap))
	}
	s := snap[0]
	if len(s.SQL) != maxSQLLen {
		t.Errorf("SQL length = %d, want truncated to %d", len(s.SQL), maxSQLLen)
	}
	if s.Kind != "insert" || s.Approach != "pyudf" {
		t.Errorf("kind/approach = %q/%q", s.Kind, s.Approach)
	}
	if s.QueueWaitNS != int64(3*time.Millisecond) {
		t.Errorf("queue wait = %d", s.QueueWaitNS)
	}
	if s.RowsOut != 9 {
		t.Errorf("rows out = %d, want 9", s.RowsOut)
	}
	if s.Error != "boom" {
		t.Errorf("error = %q", s.Error)
	}
	if s.LatencyNS <= 0 {
		t.Errorf("latency = %d, want > 0", s.LatencyNS)
	}
	if s.ID != 1 {
		t.Errorf("ID = %d, want 1", s.ID)
	}
}

// TestFinishFirstCallWins: a second Finish must not overwrite the outcome
// or publish a second summary.
func TestFinishFirstCallWins(t *testing.T) {
	r := NewRecorder(8)
	fl := begin(r, "SELECT 1", "select", "sql")
	fl.Finish(nil)
	fl.Finish(errors.New("late"))
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("published %d summaries, want 1", len(snap))
	}
	if snap[0].Error != "" {
		t.Errorf("late Finish overwrote outcome: %q", snap[0].Error)
	}
}

// TestFoldSpans: a constructed span tree folds into preorder OpStat rows,
// and the scan/model aggregates lift into the summary columns.
func TestFoldSpans(t *testing.T) {
	qt := trace.NewQueryTrace("SELECT ...")
	root := trace.NewSpan("Project p")
	root.AddWall(5 * time.Millisecond)
	root.AddRows(100)
	root.AddBatches(1)
	mj := root.NewChild("ModelJoin m [cpu]")
	mj.SetLabel("cache", "hit")
	scan := mj.NewChild("Scan t")
	scan.AddRows(150)
	scan.Counter("pruned_blocks").Add(3)
	scan.Counter("scanned_bytes").Add(4096)
	qt.Root = root

	r := NewRecorder(8)
	fl := begin(r, "SELECT ...", "select", "modeljoin")
	fl.AttachTrace(qt)
	fl.Finish(nil)

	s := r.Snapshot()[0]
	if len(s.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(s.Ops))
	}
	wantOps := []struct {
		seq, depth int
		op         string
	}{
		{0, 0, "Project p"},
		{1, 1, "ModelJoin m [cpu]"},
		{2, 2, "Scan t"},
	}
	for i, w := range wantOps {
		got := s.Ops[i]
		if got.Seq != w.seq || got.Depth != w.depth || got.Op != w.op {
			t.Errorf("ops[%d] = {%d %d %q}, want {%d %d %q}",
				i, got.Seq, got.Depth, got.Op, w.seq, w.depth, w.op)
		}
	}
	if s.Ops[0].WallNS != int64(5*time.Millisecond) || s.Ops[0].Rows != 100 || s.Ops[0].Batches != 1 {
		t.Errorf("root op stats = %+v", s.Ops[0])
	}
	if s.BlocksPruned != 3 {
		t.Errorf("blocks pruned = %d, want 3", s.BlocksPruned)
	}
	if s.BytesScanned != 4096 {
		t.Errorf("bytes scanned = %d, want 4096", s.BytesScanned)
	}
	if s.RowsIn != 150 {
		t.Errorf("rows in = %d, want 150 (from the Scan span)", s.RowsIn)
	}
	if s.Cache != "hit" {
		t.Errorf("cache = %q, want hit", s.Cache)
	}
}

// TestConcurrentRecordAndSnapshot hammers the ring from writers while a
// reader snapshots continuously; totals must be exact and snapshots always
// ID-ordered. Under -race this also proves the ring lock-free-safe.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := NewRecorder(16)
	const workers = 8
	const perWorker = 500

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i-1].ID >= snap[i].ID {
					t.Error("snapshot not strictly ID-ordered")
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				finishOne(r, "SELECT 1")
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := r.Recorded(); got != workers*perWorker {
		t.Errorf("recorded = %d, want %d", got, workers*perWorker)
	}
	if got := len(r.Snapshot()); got != 16 {
		t.Errorf("retained = %d, want full ring 16", got)
	}
}

// ---- operator wrapper ----

// fakeOp yields its batches then EOS; it can be armed to fail at Open or
// at a given Next call.
type fakeOp struct {
	schema   *types.Schema
	batches  []*vector.Batch
	pos      int
	openErr  error
	nextErr  error
	errAt    int // fail the Next call made when pos == errAt (if nextErr set)
	closed   bool
	openedOK bool
}

func (f *fakeOp) Schema() *types.Schema { return f.schema }
func (f *fakeOp) Open() error {
	if f.openErr != nil {
		return f.openErr
	}
	f.openedOK = true
	return nil
}
func (f *fakeOp) Next() (*vector.Batch, error) {
	if f.nextErr != nil && f.pos == f.errAt {
		return nil, f.nextErr
	}
	if f.pos >= len(f.batches) {
		return nil, nil
	}
	b := f.batches[f.pos]
	f.pos++
	return b, nil
}
func (f *fakeOp) Close() error {
	f.closed = true
	return nil
}

func smallBatch(t *testing.T, n int) *vector.Batch {
	t.Helper()
	sc := types.NewSchema(types.Column{Name: "v", Type: types.Int64})
	b := vector.NewBatch(sc, n)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(types.Int64Datum(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestWrapHappyPath: rows counted, summary published at Close, query ID
// exposed for the wire layer.
func TestWrapHappyPath(t *testing.T) {
	r := NewRecorder(8)
	fl := begin(r, "SELECT v FROM t", "select", "sql")
	op := Wrap(&fakeOp{batches: []*vector.Batch{smallBatch(t, 3), smallBatch(t, 2)}}, fl)

	if q, ok := op.(interface{ QueryID() uint64 }); !ok || q.QueryID() != fl.ID() {
		t.Fatal("wrapper does not expose the flight query ID")
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("summary published before Close")
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("published %d summaries, want 1", len(snap))
	}
	if snap[0].RowsOut != 5 {
		t.Errorf("rows out = %d, want 5", snap[0].RowsOut)
	}
	if snap[0].Error != "" {
		t.Errorf("error = %q, want clean", snap[0].Error)
	}
}

// TestWrapNextError: an execution error is captured and survives Close.
func TestWrapNextError(t *testing.T) {
	r := NewRecorder(8)
	fl := begin(r, "SELECT v FROM t", "select", "sql")
	op := Wrap(&fakeOp{
		batches: []*vector.Batch{smallBatch(t, 3)},
		nextErr: errors.New("exec blew up"), errAt: 1,
	}, fl)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := op.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := op.Next(); err == nil {
		t.Fatal("expected Next error")
	}
	op.Close()
	s := r.Snapshot()[0]
	if s.Error != "exec blew up" {
		t.Errorf("error = %q", s.Error)
	}
	if s.RowsOut != 3 {
		t.Errorf("rows out = %d, want 3 (rows before the failure)", s.RowsOut)
	}
}

// TestWrapOpenError: callers never Close after a failed Open, so the
// wrapper must seal the flight from Open itself.
func TestWrapOpenError(t *testing.T) {
	r := NewRecorder(8)
	fl := begin(r, "SELECT v FROM t", "select", "sql")
	op := Wrap(&fakeOp{openErr: errors.New("no such table")}, fl)
	if err := op.Open(); err == nil {
		t.Fatal("expected Open error")
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Error != "no such table" {
		t.Fatalf("open failure not sealed: %+v", snap)
	}
}

// ---- context plumbing ----

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if got := QueueWaitFrom(ctx); got != 0 {
		t.Errorf("queue wait on empty ctx = %v", got)
	}
	if got := QueueWaitFrom(WithQueueWait(ctx, 5*time.Millisecond)); got != 5*time.Millisecond {
		t.Errorf("queue wait = %v", got)
	}
	// Non-positive waits are not recorded at all.
	if got := QueueWaitFrom(WithQueueWait(ctx, -time.Second)); got != 0 {
		t.Errorf("negative queue wait leaked: %v", got)
	}
}

// ---- virtual tables ----

// TestQueriesTable: the system.queries snapshot mirrors the ring.
func TestQueriesTable(t *testing.T) {
	r := NewRecorder(8)
	fl := begin(r, "SELECT 1", "select", "sql")
	fl.AddRowsOut(1)
	fl.Finish(nil)
	fl = begin(r, "SELECT boom", "select", "modeljoin")
	fl.Finish(errors.New("boom"))

	vt := QueriesTable(r)
	if vt.Name() != "system.queries" {
		t.Fatalf("name = %q", vt.Name())
	}
	batches, err := vt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, b := range batches {
		rows += b.Len()
	}
	if rows != 2 {
		t.Fatalf("rows = %d, want 2", rows)
	}
	b := batches[0]
	sc := vt.Schema()
	col := func(name string) int {
		for i := 0; i < sc.Len(); i++ {
			if sc.Col(i).Name == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	if got := b.Vecs[col("query_id")].Int64s()[0]; got != 1 {
		t.Errorf("query_id[0] = %d", got)
	}
	if got := b.Vecs[col("approach")].Strings()[1]; got != "modeljoin" {
		t.Errorf("approach[1] = %q", got)
	}
	if got := b.Vecs[col("error")].Strings()[1]; got != "boom" {
		t.Errorf("error[1] = %q", got)
	}
	if got := b.Vecs[col("rows_out")].Int64s()[0]; got != 1 {
		t.Errorf("rows_out[0] = %d", got)
	}
}

// TestOperatorsTable: base rows carry wall/rows/batches; counter rows ride
// along under the same query_id and op_seq.
func TestOperatorsTable(t *testing.T) {
	qt := trace.NewQueryTrace("q")
	root := trace.NewSpan("Scan t")
	root.AddRows(10)
	root.Counter("pruned_blocks").Add(2)
	qt.Root = root

	r := NewRecorder(8)
	fl := begin(r, "q", "select", "sql")
	fl.AttachTrace(qt)
	fl.Finish(nil)

	vt := OperatorsTable(r)
	if vt.Name() != "system.query_operators" {
		t.Fatalf("name = %q", vt.Name())
	}
	batches, err := vt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || batches[0].Len() != 2 {
		t.Fatalf("want 2 rows (base + one counter), got %+v", batches)
	}
	b := batches[0]
	// Row 0 is the base operator row, row 1 the pruned_blocks counter.
	if got := b.Vecs[5].Strings(); got[0] != "" || got[1] != "pruned_blocks" {
		t.Errorf("counter column = %v", got)
	}
	if rows := b.Vecs[7].Int64s()[0]; rows != 10 {
		t.Errorf("base row rows = %d", rows)
	}
	if val := b.Vecs[9].Int64s()[1]; val != 2 {
		t.Errorf("counter value = %d", val)
	}
}
