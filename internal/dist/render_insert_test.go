package dist

import (
	"reflect"
	"testing"

	"indbml/internal/engine/sql"
)

// TestRenderInsertRoundTrip parses an INSERT whose table and columns need
// quoting, renders it the way the coordinator sends it to a shard, and
// checks the shard parses the same statement back.
func TestRenderInsertRoundTrip(t *testing.T) {
	for _, q := range []string{
		`INSERT INTO "Order Items" ("select", "CamelCase", plain) VALUES (1, 'a', -2.5), (2, 'b''c', NULL)`,
		`INSERT INTO "from" VALUES (1, TRUE)`,
		`INSERT INTO events ("value", "Mixed Case") VALUES (3, 'x')`,
	} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		in := st.(*sql.InsertStmt)
		text := renderInsert(in.Table, in.Cols, in.Rows)
		st2, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("rendered %q does not parse: %v", text, err)
		}
		out := st2.(*sql.InsertStmt)
		if out.Table != in.Table || !reflect.DeepEqual(out.Cols, in.Cols) {
			t.Errorf("%s\nrendered %s\nparsed back as table %q columns %q", q, text, out.Table, out.Cols)
		}
		if again := renderInsert(out.Table, out.Cols, out.Rows); again != text {
			t.Errorf("render is not stable:\n%s\n%s", text, again)
		}
	}
}
