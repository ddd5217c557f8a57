package db_test

import (
	"strings"
	"testing"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/nn"
)

func TestModelJoinErrors(t *testing.T) {
	d := db.Open(db.Options{})
	makeFactTable(t, d, "fact", 50, 4, 1, 1)
	model := nn.NewDenseModel("m", 4, 8, 1, 1, 3)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT * FROM fact MODEL JOIN missing",
		"SELECT * FROM fact MODEL JOIN m PREDICT (af0, bf1)",                              // wrong arity
		"SELECT * FROM fact MODEL JOIN m PREDICT (af0, bf1, cf2, payload)",                // non-numeric
		"SELECT * FROM fact MODEL JOIN m PREDICT (af0, bf1, cf2, df3) USING DEVICE 'tpu'", // unknown device
		"SELECT * FROM fact MODEL JOIN fact",                                              // not a model
	} {
		if _, err := d.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestCreateModelTableSchema(t *testing.T) {
	d := db.Open(db.Options{})
	if err := d.Exec("CREATE MODEL TABLE weights"); err != nil {
		t.Fatal(err)
	}
	tbl, err := d.Table("weights")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Schema.Len() != 16 {
		t.Errorf("model table has %d columns, want the fixed 16 of Sec. 4.1", tbl.Schema.Len())
	}
	if _, ok := tbl.Schema.Lookup("w_i"); !ok {
		t.Error("model table lacks weight columns")
	}
	// The empty table is not a registered model (no metadata): MODEL JOIN
	// must be rejected until a model is registered under that name.
	if err := d.Exec("CREATE TABLE f (id BIGINT, x REAL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query("SELECT * FROM f MODEL JOIN weights"); err == nil {
		t.Error("MODEL JOIN against an unregistered model table should fail")
	}
}

// TestCreateModelTableRejectsBadMeta: a META document is checked by the
// model-table decoder's layer rules at CREATE, so a model no build could
// read is refused there with an error — not accepted, to make a later MODEL
// JOIN panic (negative units) or build a layer it cannot name (an unknown
// activation or kind). A node-id layout META gets that layout's schema.
func TestCreateModelTableRejectsBadMeta(t *testing.T) {
	d := db.Open(db.Options{})
	makeFactTable(t, d, "fact", 20, 4, 1, 1)
	for _, c := range []struct{ layer, want string }{
		{`{"kind":"dense","units":-3,"activation":"relu"}`, "layer 1 has -3 units"},
		{`{"kind":"dense","units":3,"activation":"bogus"}`, `unsupported activation "bogus"`},
		{`{"kind":"conv","units":3}`, `unknown kind "conv"`},
	} {
		meta := `{"name":"bm","layers":[{"kind":"input","units":4},` + c.layer + `]}`
		if err := d.Exec("CREATE MODEL TABLE bm META '" + meta + "'"); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("CREATE MODEL TABLE with layer %s: got %v, want an error containing %q", c.layer, err, c.want)
		}
		if _, err := d.Query("SELECT id, prediction FROM fact MODEL JOIN bm PREDICT (af0, bf1, cf2, df3)"); err == nil {
			t.Errorf("MODEL JOIN after a refused CREATE with layer %s succeeded", c.layer)
		}
	}
	if err := d.Exec(`CREATE MODEL TABLE nm META '{"name":"nm","layout":1,"layers":[{"kind":"input","units":4},{"kind":"dense","units":1}]}'`); err != nil {
		t.Fatal(err)
	}
	if tbl, err := d.Table("nm"); err != nil || tbl.Schema.Len() != 14 {
		t.Errorf("node-id model table: %v, want the 14 columns of that layout", err)
	}
}

func TestRegisteredModelQueryableAsTable(t *testing.T) {
	// Sec. 4.1: the model *is* a table; plain SQL can inspect it.
	d := db.Open(db.Options{})
	model := nn.NewDenseModel("m", 4, 8, 1, 1, 5)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := d.Query("SELECT COUNT(*) AS edges, MAX(layer) AS last FROM m")
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := int64(4 + 4*8 + 8)
	if res.Vecs[0].Int64s()[0] != wantEdges {
		t.Errorf("edges = %d, want %d", res.Vecs[0].Int64s()[0], wantEdges)
	}
	if res.Vecs[1].Int32s()[0] != 2 {
		t.Errorf("last layer = %d, want 2", res.Vecs[1].Int32s()[0])
	}
}

func TestExplainTopNFusion(t *testing.T) {
	d := db.Open(db.Options{DefaultPartitions: 2})
	makeFactTable(t, d, "fact", 100, 2, 2, 9)
	op, err := d.QueryOp("SELECT id FROM fact ORDER BY af0 DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	// The fused plan must produce exactly the sort+limit result.
	res, err := d.Query("SELECT id FROM fact ORDER BY af0 DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("got %d rows", res.Len())
	}
	_ = op
}
