package db_test

import (
	"context"
	"errors"
	"testing"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/sql"
	"indbml/internal/nn"
)

// TestVirtualTableShadowing: the binder consults virtual tables only after
// the regular catalog lookup fails, so a user table named system.queries
// shadows the built-in view — and dropping it brings the view back. The
// shadow table is created, filled, queried and dropped entirely through
// SQL, exercising the qualified-name path in every statement kind.
func TestVirtualTableShadowing(t *testing.T) {
	d := db.Open(db.Options{})
	if err := d.Exec("CREATE TABLE system.queries (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := d.Exec("INSERT INTO system.queries (a) VALUES (7), (9)"); err != nil {
		t.Fatal(err)
	}
	res, err := d.Query("SELECT SUM(a) AS s FROM system.queries")
	if err != nil {
		t.Fatalf("shadowed table not used: %v", err)
	}
	if got := res.Vecs[0].Int64s()[0]; got != 16 {
		t.Errorf("sum over shadow table = %d, want 16", got)
	}
	if err := d.Exec("DROP TABLE system.queries"); err != nil {
		t.Fatal(err)
	}
	// With the shadow gone the virtual view resolves again: the statements
	// above are in the flight recorder, and column sql exists only there.
	res, err = d.Query("SELECT COUNT(*) AS n FROM system.queries WHERE sql <> ''")
	if err != nil {
		t.Fatalf("virtual table not restored after DROP: %v", err)
	}
	if got := res.Vecs[0].Int64s()[0]; got < 3 {
		t.Errorf("system.queries rows = %d, want the shadow-table traffic recorded", got)
	}
}

// TestLSTMModelJoinBatched: a MODEL JOIN over a recurrent model takes the
// same road as a dense one — through the inference scheduler — on the CPU
// and GPU[sim]: its predictions match nn, its flight record says
// batched=yes and its batches are in system.inference_batches.
func TestLSTMModelJoinBatched(t *testing.T) {
	d := db.Open(db.Options{Parallelism: 2})
	const rows, steps, width = 200, 3, 8
	data := makeFactTable(t, d, "series", rows, steps, 2, 77)
	model := nn.NewLSTMModel("lm", steps, width, 5)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	ref := model.PredictBatch(data)
	for _, q := range []string{"SELECT id, prediction FROM series MODEL JOIN lm", "SELECT id, prediction FROM series MODEL JOIN lm USING DEVICE 'gpu'"} {
		res, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		checkPredictionsTol(t, res, ref, rows, 1, 1e-4)
	}
	res, err := d.Query("SELECT batched FROM system.queries WHERE approach = 'modeljoin'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Vecs[0].Len() != 2 {
		t.Fatalf("modeljoin flight records = %d, want 2", res.Vecs[0].Len())
	}
	for _, got := range res.Vecs[0].Strings() {
		if got != "yes" {
			t.Errorf("batched = %q, want yes", got)
		}
	}
	res, err = d.Query("SELECT rows FROM system.inference_batches WHERE model = 'lm'")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, n := range res.Vecs[0].Int32s() {
		got += int(n)
	}
	if got != 2*rows {
		t.Errorf("system.inference_batches holds %d lstm rows, want %d", got, 2*rows)
	}
}

// blockingRouter holds every DDL/DML statement in RouteExec until its
// context ends, and leaves SELECTs local.
type blockingRouter struct{ entered chan struct{} }

func (r blockingRouter) RouteSelect(context.Context, *sql.SelectStmt, string) (exec.Operator, bool, error) {
	return nil, false, nil
}

func (r blockingRouter) RouteExec(ctx context.Context, _ sql.Stmt, _ string) (bool, error) {
	r.entered <- struct{}{}
	<-ctx.Done()
	return true, ctx.Err()
}

// TestEmbeddedDMLIsLiveAndKillable: an embedded DML statement has the
// lifecycle an embedded SELECT has — listed in system.active_queries while
// it runs, killable by its query ID, and published under that ID.
func TestEmbeddedDMLIsLiveAndKillable(t *testing.T) {
	d := db.Open(db.Options{})
	if err := d.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	router := blockingRouter{entered: make(chan struct{})}
	d.SetRouter(router)
	const stmt = "INSERT INTO t (a) VALUES (1)"
	done := make(chan error, 1)
	go func() { done <- d.Exec(stmt) }()
	<-router.entered

	res, err := d.Query("SELECT query_id, session, state, sql FROM system.active_queries WHERE sql = '" + stmt + "'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Vecs[1].Datum(0).String() != "embedded" || res.Vecs[2].Datum(0).String() != "running" {
		t.Fatalf("system.active_queries lists the running INSERT as %d rows %v", res.Len(), res)
	}
	id := uint64(res.Vecs[0].Int64s()[0])
	if err := d.Kill(id); err != nil {
		t.Fatalf("KILL %d: %v", id, err)
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("killed INSERT returned %v, want context.Canceled", err)
	}
	d.SetRouter(nil)
	for _, s := range d.FlightRecorder().Snapshot() {
		if s.ID == id {
			if s.Kind != "insert" || s.SQL != stmt || s.Error == "" {
				t.Errorf("killed INSERT published as kind %q sql %q error %q", s.Kind, s.SQL, s.Error)
			}
			return
		}
	}
	t.Fatalf("killed INSERT %d not in system.queries", id)
}

// TestStatementsOfTheWrongKindRecordedAsExec: a statement that does not
// parse, and one a SELECT wrapper refuses, are recorded with kind exec and
// the error they failed with; nothing runs.
func TestStatementsOfTheWrongKindRecordedAsExec(t *testing.T) {
	d := db.Open(db.Options{})
	for _, c := range []struct{ text, err string }{
		{"SELEC 1", sql.ParseNormalized("SELEC 1", false).Err.Error()},
		{"CREATE TABLE t (a BIGINT)", "sql: expected a SELECT statement"},
	} {
		if _, err := d.Query(c.text); err == nil || err.Error() != c.err {
			t.Fatalf("Query(%q) = %v, want %q", c.text, err, c.err)
		}
		sums := d.FlightRecorder().Snapshot()
		last := sums[len(sums)-1]
		if last.SQL != c.text || last.Kind != "exec" || last.Error != c.err {
			t.Errorf("%q recorded as %q kind %q error %q, want kind exec and %q", c.text, last.SQL, last.Kind, last.Error, c.err)
		}
	}
	if _, err := d.Table("t"); err == nil {
		t.Error("a CREATE TABLE given to Query ran")
	}
}
