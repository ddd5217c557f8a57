package db_test

import (
	"testing"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
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
