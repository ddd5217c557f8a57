package db_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"indbml/internal/engine/db"
	"indbml/internal/engine/expr"
	"indbml/internal/engine/plan"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// allTypes is a table with one column of every type.
const allTypes = "CREATE TABLE t (b BOOLEAN, i INTEGER, l BIGINT, r REAL, d DOUBLE, s VARCHAR)"

func openAllTypes(tb testing.TB) *db.Database {
	tb.Helper()
	d := db.Open(db.Options{DefaultPartitions: 2})
	if err := d.Exec(allTypes); err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestInsertNarrowing: a value out of an integer column's range is an error
// that names the value and the row, whether the cell is a literal or an
// expression, and a SELECT's CAST follows the same rule.
func TestInsertNarrowing(t *testing.T) {
	d := openAllTypes(t)
	for _, tc := range []struct{ stmt, err string }{
		{"INSERT INTO t (i) VALUES (3000000000)", "db: INSERT row 0: expr: 3000000000 is out of range for INTEGER"},
		{"INSERT INTO t (i) VALUES (1), (-2147483649)", "db: INSERT row 1: expr: -2147483649 is out of range for INTEGER"},
		{"INSERT INTO t (i) VALUES (2147483647.5), (3e9)", "db: INSERT row 1: expr: 3e+09 is out of range for INTEGER"},
		{"INSERT INTO t (l) VALUES (1e19)", "db: INSERT row 0: expr: 1e+19 is out of range for BIGINT"},
		{"INSERT INTO t (l) VALUES (-1e19)", "db: INSERT row 0: expr: -1e+19 is out of range for BIGINT"},
		{"INSERT INTO t (i) VALUES (CAST(3000000000 AS INTEGER))", "db: INSERT row 0: expr: 3000000000 is out of range for INTEGER"},
		{"INSERT INTO t (i) VALUES (2 * 1.5e9)", "db: INSERT row 0: expr: 3e+09 is out of range for INTEGER"},
		{"INSERT INTO t (l) VALUES (1, 2, 3)", "db: INSERT row 0 has 3 values, want 1"},
	} {
		if err := d.Exec(tc.stmt); err == nil || err.Error() != tc.err {
			t.Errorf("%s: error %v, want %q", tc.stmt, err, tc.err)
		}
	}
	if _, err := d.Query("SELECT CAST(3000000000 AS INTEGER) AS x"); err == nil || !strings.Contains(err.Error(), "3000000000 is out of range for INTEGER") {
		t.Errorf("SELECT CAST(3000000000 AS INTEGER): error %v, want out of range", err)
	}
	if n := queryInt64(t, d, "SELECT COUNT(*) FROM t"); n != 0 {
		t.Errorf("failed INSERTs left %d rows", n)
	}

	// The bounds themselves fit, and REAL overflows to +Inf as IEEE does.
	if err := d.Exec("INSERT INTO t (i, l, r) VALUES (2147483647, 9223372036854775807, 1e39), (-2147483648, -9.2e18, -1e39)"); err != nil {
		t.Fatal(err)
	}
	res, err := d.Query("SELECT i, l, r FROM t ORDER BY i")
	if err != nil {
		t.Fatal(err)
	}
	if i, l, r := res.Vecs[0].Int32s(), res.Vecs[1].Int64s(), res.Vecs[2].Float32s(); i[0] != math.MinInt32 || i[1] != math.MaxInt32 ||
		l[0] != -9200000000000000000 || l[1] != math.MaxInt64 || !math.IsInf(float64(r[0]), -1) || !math.IsInf(float64(r[1]), 1) {
		t.Errorf("bounds read back as %v %v %v", i, l, r)
	}
}

// TestNarrowingOnKeptRowsOnly: a narrowing cast fails only on a row the
// query keeps. A CASE arm, a CASE condition after an arm that took the row,
// the right side of an AND or OR the left side decides, and a filter above
// a filter that removed the row all leave an out-of-range value unkept,
// which the cast may not fail on; a kept one still fails.
func TestNarrowingOnKeptRowsOnly(t *testing.T) {
	// One partition, so one block holds every row and no zone map can
	// prune the out-of-range value away before a filter sees it.
	d := db.Open(db.Options{DefaultPartitions: 1})
	if err := d.Exec("CREATE TABLE t (d DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if err := d.Exec("INSERT INTO t (d) VALUES (1.5), (3e9), (NULL)"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ q, want string }{
		{"SELECT CASE WHEN d < 1e9 THEN CAST(d AS INTEGER) ELSE -1 END AS x FROM t ORDER BY x", "-1 -1 1"},
		{"SELECT CASE WHEN d >= 1e9 THEN -1 ELSE CAST(d AS INTEGER) END AS x FROM t ORDER BY x", "NULL -1 1"},
		{"SELECT CASE WHEN d > 1e9 THEN 0 WHEN CAST(d AS INTEGER) = 1 THEN 1 END AS x FROM t ORDER BY x", "NULL 0 1"},
		{"SELECT CASE WHEN d < 1e9 THEN CASE WHEN d > 0 THEN CAST(d AS BIGINT) * 2 END END AS x FROM t ORDER BY x", "NULL NULL 2"},
		{"SELECT COUNT(*) AS n FROM t WHERE d < 1e9 AND CAST(d AS INTEGER) > 0", "1"},
		{"SELECT COUNT(*) AS n FROM t WHERE d > 1e9 OR CAST(d AS INTEGER) > 0", "2"},
		{"SELECT COUNT(*) AS n FROM (SELECT d FROM t WHERE d < 1e9) s WHERE CAST(d AS INTEGER) > 0", "1"},
		{"SELECT CAST(d AS INTEGER) AS x FROM t WHERE d < 1e9", "1"},
		{"SELECT COUNT(*) AS n FROM t a JOIN t b ON a.d = b.d WHERE a.d < 1e9 AND CAST(a.d AS INTEGER) > 0", "1"},
	} {
		res, err := d.Query(tc.q)
		if err != nil {
			t.Errorf("%s: %v", tc.q, err)
			continue
		}
		var got []string
		for r := 0; r < res.Len(); r++ {
			got = append(got, res.Vecs[0].Datum(r).String())
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%s = %v, want %s", tc.q, got, tc.want)
		}
	}
	for _, q := range []string{
		"SELECT CAST(d AS INTEGER) AS x FROM t",
		"SELECT CASE WHEN d > 0 THEN CAST(d AS INTEGER) END AS x FROM t",
		"SELECT COUNT(*) AS n FROM t WHERE d > 0 AND CAST(d AS INTEGER) > 0",
		"SELECT COUNT(*) AS n FROM t WHERE d < 0 OR CAST(d AS INTEGER) > 0",
	} {
		if _, err := d.Query(q); err == nil || !strings.Contains(err.Error(), "3e+09 is out of range for INTEGER") {
			t.Errorf("%s: error %v, want out of range", q, err)
		}
	}
}

// TestSmallestBigint: a minus applied directly to a numeric literal binds as
// one signed literal, so the smallest BIGINT can be written, in VALUES and
// in expressions alike.
func TestSmallestBigint(t *testing.T) {
	d := openAllTypes(t)
	for _, stmt := range []string{
		"INSERT INTO t (l) VALUES (-9223372036854775808)",
		"INSERT INTO t (l) VALUES (- 9223372036854775808)",
		"INSERT INTO t (l) VALUES (-9223372036854775808 + 0)",
		"INSERT INTO t (l) VALUES (CAST(-9223372036854775808 AS BIGINT))",
	} {
		if err := d.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if n := queryInt64(t, d, "SELECT COUNT(*) FROM t WHERE l = -9223372036854775808"); n != 4 {
		t.Errorf("%d rows hold the smallest BIGINT, want 4", n)
	}
	if v := queryInt64(t, d, "SELECT -9223372036854775808 AS x"); v != math.MinInt64 {
		t.Errorf("SELECT -9223372036854775808 = %d", v)
	}
	if err := d.Exec("INSERT INTO t (l) VALUES (-9223372036854775809)"); err == nil {
		t.Error("-9223372036854775809 fits no integer type but was inserted")
	}

	// A signed literal is typed by its magnitude, as the negation of the
	// unsigned one was: -2147483648 is a BIGINT, so arithmetic on it does
	// not wrap at INTEGER's bounds.
	if v := queryInt64(t, d, "SELECT -2147483648 - 1 AS x"); v != -2147483649 {
		t.Errorf("SELECT -2147483648 - 1 = %d, want -2147483649", v)
	}
	if err := d.Exec("INSERT INTO t (l, i) VALUES (-2147483648 - 1, -2147483648)"); err != nil {
		t.Fatal(err)
	}
	if n := queryInt64(t, d, "SELECT COUNT(*) FROM t WHERE l = -2147483649 AND i = -2147483648"); n != 1 {
		t.Errorf("%d rows hold -2147483648 - 1 and -2147483648, want 1", n)
	}
}

// refInsert binds VALUES rows the way every cell bound before literal cells
// went straight into their columns: each cell through BindConstExpr, a cast
// to its column's type and Fold, evaluated when it does not fold, column by
// column. The table's columns are all listed, in order.
func refInsert(schema *types.Schema, rows [][]sql.Expr) (*vector.Batch, error) {
	for ri, row := range rows {
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("db: INSERT row %d has %d values, want %d", ri, len(row), schema.Len())
		}
	}
	b := vector.NewBatch(schema, len(rows))
	b.SetLen(len(rows))
	pl := &plan.Planner{}
	one := vector.NewBatch(types.NewSchema(), 1)
	one.SetLen(1)
	for c := range schema.Len() {
		for ri, row := range rows {
			e, err := pl.BindConstExpr(row[c])
			if err != nil {
				return nil, fmt.Errorf("db: INSERT row %d: %w", ri, err)
			}
			e = expr.Fold(expr.NewCast(e, schema.Col(c).Type))
			val, ok := expr.IsConst(e)
			if !ok {
				ev := expr.NewEvaluator(e)
				v, err := ev.Eval(one)
				if err != nil {
					return nil, fmt.Errorf("db: INSERT row %d: %w", ri, err)
				}
				val = v.Datum(0)
			}
			b.Vecs[c].SetDatum(ri, val)
		}
	}
	return b, nil
}

// cellExpr is a parsed VALUES cell as an expression tree.
func cellExpr(c sql.Cell) sql.Expr {
	switch {
	case c.Lit == sql.TokNumber:
		return &sql.NumberLit{Text: c.Text}
	case c.Lit == sql.TokString:
		return &sql.StringLit{Val: c.Text}
	case c.Lit == sql.TokKeyword && c.Text == "NULL":
		return &sql.NullLit{}
	case c.Lit == sql.TokKeyword:
		return &sql.BoolLit{Val: c.Text == "TRUE"}
	}
	return c.Expr
}

// sameInsert compares BindInsert's result with the reference's: the same
// error text, or batches equal bit for bit (NULL slots' payloads aside).
func sameInsert(got *vector.Batch, gotErr error, want *vector.Batch, wantErr error) error {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %v, reference error %v", gotErr, wantErr)
		}
		return nil
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, reference %d", got.Len(), want.Len())
	}
	for c, gv := range got.Vecs {
		wv := want.Vecs[c]
		for r := range got.Len() {
			g, w := gv.Datum(r), wv.Datum(r)
			if g.Type != w.Type || g.Null != w.Null || !g.Null && (g.B != w.B || g.I64 != w.I64 || g.S != w.S || math.Float64bits(g.F64) != math.Float64bits(w.F64)) {
				return fmt.Errorf("column %d row %d = %v, reference %v", c, r, g, w)
			}
		}
	}
	return nil
}

// insertCells are VALUES cells over every literal spelling and edge: integers
// at the INTEGER and BIGINT bounds and one past them, floats spelled by %g,
// with exponents, as .5 and 5., signed, NULL, TRUE and FALSE, strings with
// doubled quotes, and expression cells.
var insertCells = []string{
	"0", "7", "-7", "+7", "- 7", "2147483647", "2147483648", "-2147483648", "-2147483649",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"3000000000", "0.1", "-0.0", "1.5e3", "2E-4", "1e19", "-1e19", "3e9", "1e39", "1e400", "9.2e18",
	".5", "5.", "-.5", "+5.", "1e", "2147483647.9", "-2147483648.9",
	"NULL", "TRUE", "FALSE", "''", "'x'", "'it''s'", "'NULL'", "'1'",
	"1+2", "-(3)", "- -3", "CAST(2.5 AS INTEGER)", "CAST(3000000000 AS INTEGER)", "CAST('a' AS VARCHAR)",
	"CAST(TRUE AS DOUBLE)", "2 * 1.5", "NULL + 1", "-NULL", "-'x'", "(4)", "1 = 1",
}

// insertCellsFor are the cells that bind into a column of type t, so most
// generated statements succeed.
func insertCellsFor(t types.T) []string {
	switch t {
	case types.Bool:
		return []string{"NULL", "TRUE", "FALSE", "0", "-7", "0.1", "-0.0", "3e9", ".5", "1 = 1", "-(3)"}
	case types.Int32:
		return []string{"NULL", "TRUE", "7", "-7", "+7", "- 7", "2147483647", "-2147483648", "0.1", "-0.0", "1.5e3", "5.", "2147483647.9", "-2147483648.9", "1+2", "CAST(2.5 AS INTEGER)"}
	case types.Int64:
		return []string{"NULL", "FALSE", "2147483648", "-2147483649", "9223372036854775807", "-9223372036854775808", "3000000000", "9.2e18", "-.5", "2 * 1.5", "- -3"}
	case types.String:
		return []string{"NULL", "''", "'x'", "'it''s'", "'NULL'", "7", "-7", "2147483648", "0.1", "-0.0", "1.5e3", "2E-4", "1e19", "TRUE", "CAST('a' AS VARCHAR)"}
	default:
		return []string{"NULL", "TRUE", "0", "-7", "-9223372036854775808", "0.1", "-0.0", "1.5e3", "2E-4", "1e19", "1e39", ".5", "5.", "+5.", "CAST(TRUE AS DOUBLE)", "NULL + 1"}
	}
}

// TestGeneratedInsertValues binds random multi-row VALUES statements over an
// all-types table and checks that BindInsert, which writes literal cells
// straight into their columns, returns what binding every cell — parsed
// alone, as a SELECT item — through BindConstExpr, Cast and Fold returns:
// the batch bit for bit, or the same error, row number included.
func TestGeneratedInsertValues(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	d := openAllTypes(t)
	tbl, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	schema := tbl.Schema
	bound := 0
	const stmts = 400
	for range stmts {
		nrows := 1 + rng.Intn(6)
		rows := make([][]sql.Expr, nrows)
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for r := range rows {
			if r > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for c := range schema.Len() {
				pool := insertCellsFor(schema.Col(c).Type)
				if rng.Intn(40) == 0 {
					pool = insertCells
				}
				cell := pool[rng.Intn(len(pool))]
				if c > 0 {
					sb.WriteString([]string{",", ", ", " ,"}[rng.Intn(3)])
				}
				sb.WriteString(cell)
				sel, err := sql.ParseSelect("SELECT " + cell)
				if err != nil {
					t.Fatalf("cell %s: %v", cell, err)
				}
				rows[r] = append(rows[r], sel.Items[0].Expr)
			}
			sb.WriteByte(')')
		}
		text := sb.String()
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		got, gotErr := d.BindInsert(stmt.(*sql.InsertStmt))
		want, wantErr := refInsert(schema, rows)
		if err := sameInsert(got, gotErr, want, wantErr); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if gotErr == nil {
			bound++
		}
	}
	if bound < stmts/4 {
		t.Errorf("only %d of %d statements bound", bound, stmts)
	}
}

// FuzzInsertValues puts arbitrary text inside INSERT INTO t VALUES (…) over
// an all-types table. Parsing and binding must not panic, and whatever
// parses must bind as the per-cell reference binds it: the same batch bit
// for bit, or the same error.
func FuzzInsertValues(f *testing.F) {
	for _, cell := range insertCells {
		f.Add(cell + ", 1, 2, 3, 4, 'x'")
		f.Add("NULL, NULL, NULL, NULL, NULL, " + cell)
		f.Add("TRUE, " + cell + ", " + cell + ", 1, 2, NULL), (FALSE, 0, 0, " + cell + ", " + cell + ", 's'")
	}
	d := openAllTypes(f)
	tbl, err := d.Table("t")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, cells string) {
		text := "INSERT INTO t VALUES (" + cells + ")"
		stmt, err := sql.Parse(text)
		if err != nil {
			return
		}
		ins := stmt.(*sql.InsertStmt)
		if len(ins.Cols) != 0 || ins.Table != "t" {
			t.Fatalf("%q parsed as an INSERT into %s %v", text, ins.Table, ins.Cols)
		}
		rows := make([][]sql.Expr, len(ins.Rows))
		for r := range rows {
			for _, c := range ins.Row(r) {
				rows[r] = append(rows[r], cellExpr(c))
			}
		}
		got, gotErr := d.BindInsert(ins)
		want, wantErr := refInsert(tbl.Schema, rows)
		if err := sameInsert(got, gotErr, want, wantErr); err != nil {
			t.Fatalf("%q: %v", text, err)
		}
	})
}

// TestInsertCellsParse: a literal cell, signed or not, is kept as its token;
// a cell with anything after the literal is an expression.
func TestInsertCellsParse(t *testing.T) {
	stmt, err := sql.Parse("INSERT INTO t VALUES (5 AS)")
	if err == nil {
		t.Fatalf("trailing AS parsed: %+v", stmt)
	}
	stmt, err = sql.Parse("INSERT INTO t VALUES (-5, - 5, +5, 'a''b', NULL, TRUE, 1+2, -(3), 'x' = 'y'), (1.5e3)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*sql.InsertStmt)
	want := []sql.Cell{
		{Lit: sql.TokNumber, Text: "-5"}, {Lit: sql.TokNumber, Text: "-5"}, {Lit: sql.TokNumber, Text: "5"},
		{Lit: sql.TokString, Text: "a'b"}, {Lit: sql.TokKeyword, Text: "NULL"}, {Lit: sql.TokKeyword, Text: "TRUE"},
	}
	if len(ins.Rows) != 2 || len(ins.Row(0)) != 9 || len(ins.Row(1)) != 1 {
		t.Fatalf("rows %v", ins.Rows)
	}
	for i, c := range ins.Row(0) {
		if i < len(want) {
			if c.Lit != want[i].Lit || c.Text != want[i].Text || c.Expr != nil {
				t.Errorf("cell %d = %+v, want %+v", i, c, want[i])
			}
		} else if c.Lit != sql.TokEOF || c.Expr == nil {
			t.Errorf("cell %d = %+v, want an expression", i, c)
		}
	}
	if c := ins.Row(1)[0]; c.Lit != sql.TokNumber || c.Text != "1.5e3" {
		t.Errorf("row 1 = %+v", c)
	}
	if len(ins.Cells) != 10 {
		t.Errorf("%d cells, want 10", len(ins.Cells))
	}
}
