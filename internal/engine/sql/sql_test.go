package sql

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, 1.5e2 FROM t WHERE x <> 'it''s' -- comment\n AND y >= -3", nil)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "1.5e2", "FROM", "t", "WHERE", "x", "<>", "it's", "AND", "y", ">=", "-", "3", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	_ = kinds
}

func TestLexErrors(t *testing.T) {
	for bad, want := range map[string]string{
		"'unterminated":   "sql: unterminated string literal at offset 0",
		`a "unterminated`: "sql: unterminated quoted identifier at offset 2",
		`a ""`:            "sql: zero-length quoted identifier at offset 2",
		"a $ b":           "sql: illegal character '$' at offset 2",
	} {
		if _, err := lex(bad, nil); err == nil || err.Error() != want {
			t.Errorf("lex(%q) error = %v, want %q", bad, err, want)
		}
	}
}

func TestParseSelectBasic(t *testing.T) {
	sel, err := ParseSelect("SELECT a, b AS bee, COUNT(*) FROM t WHERE a > 3 GROUP BY a, b ORDER BY a DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Items) != 3 || sel.Items[1].Alias != "bee" {
		t.Errorf("items parsed wrong: %+v", sel.Items)
	}
	if sel.Where == nil || len(sel.GroupBy) != 2 || len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc || sel.Limit != 10 {
		t.Errorf("clauses parsed wrong: %+v", sel)
	}
}

func TestParseNestedSubquery(t *testing.T) {
	q := `SELECT id, s + bias AS output FROM
	       (SELECT input.id AS id, SUM(input.v * model.w_i) AS s, model.b_i AS bias
	        FROM (SELECT x AS id, y AS v FROM base) AS input, model_table AS model
	        WHERE input.id = model.node_in
	        GROUP BY input.id, model.b_i) AS t`
	sel, err := ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := sel.From.(*SubqueryRef)
	if !ok || sub.Alias != "t" {
		t.Fatalf("outer FROM is %T", sel.From)
	}
	join, ok := sub.Select.From.(*JoinRef)
	if !ok {
		t.Fatalf("inner FROM is %T", sub.Select.From)
	}
	if _, ok := join.Left.(*SubqueryRef); !ok {
		t.Errorf("join left is %T, want subquery", join.Left)
	}
	bt, ok := join.Right.(*BaseTable)
	if !ok || bt.Alias != "model" {
		t.Errorf("join right = %+v", join.Right)
	}
}

func TestParseModelJoin(t *testing.T) {
	sel, err := ParseSelect("SELECT * FROM iris MODEL JOIN iris_model PREDICT (a, b) USING DEVICE 'gpu'")
	if err != nil {
		t.Fatal(err)
	}
	mj, ok := sel.From.(*ModelJoinRef)
	if !ok {
		t.Fatalf("FROM is %T, want ModelJoinRef", sel.From)
	}
	if mj.ModelName != "iris_model" || mj.Device != "gpu" || len(mj.Inputs) != 2 {
		t.Errorf("model join parsed wrong: %+v", mj)
	}
	if _, ok := mj.Fact.(*BaseTable); !ok {
		t.Errorf("fact is %T", mj.Fact)
	}
}

func TestParseModelJoinMinimal(t *testing.T) {
	sel, err := ParseSelect("SELECT * FROM t MODEL JOIN m")
	if err != nil {
		t.Fatal(err)
	}
	mj := sel.From.(*ModelJoinRef)
	if mj.ModelName != "m" || mj.Device != "" || mj.Inputs != nil {
		t.Errorf("minimal model join parsed wrong: %+v", mj)
	}
}

func TestParseCase(t *testing.T) {
	sel, err := ParseSelect("SELECT CASE WHEN node = 0 THEN c0 WHEN node = 1 THEN c1 ELSE 0 END AS v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	ce, ok := sel.Items[0].Expr.(*CaseExpr)
	if !ok || len(ce.Whens) != 2 || ce.Else == nil {
		t.Errorf("case parsed wrong: %+v", sel.Items[0].Expr)
	}
}

func TestParseCreateAndInsert(t *testing.T) {
	stmt, err := Parse("CREATE TABLE t (id BIGINT, v REAL, name VARCHAR) PARTITIONS 12 SORTED BY id")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "t" || len(ct.Cols) != 3 || ct.Partitions != 12 || ct.SortedBy != "id" {
		t.Errorf("create parsed wrong: %+v", ct)
	}
	stmt, err = Parse("CREATE MODEL TABLE m")
	if err != nil {
		t.Fatal(err)
	}
	if mt := stmt.(*CreateTableStmt); !mt.Model || mt.Name != "m" {
		t.Errorf("create model parsed wrong: %+v", mt)
	}
	stmt, err = Parse("INSERT INTO t (id, v) VALUES (1, 2.5), (2, -3)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table != "t" || len(ins.Cols) != 2 || len(ins.Rows) != 2 {
		t.Errorf("insert parsed wrong: %+v", ins)
	}
}

func TestParseBetween(t *testing.T) {
	sel, err := ParseSelect("SELECT a FROM t WHERE node BETWEEN 32 AND 63")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sel.Where.(*BetweenExpr); !ok {
		t.Errorf("where is %T", sel.Where)
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	sel, err := ParseSelect("SELECT a + b * c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	top := sel.Items[0].Expr.(*BinExpr)
	if top.Op != "+" {
		t.Fatalf("top op %q", top.Op)
	}
	if r := top.R.(*BinExpr); r.Op != "*" {
		t.Errorf("mul should bind tighter, got %q", r.Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM (SELECT b FROM t)", // missing subquery alias
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"INSERT INTO t VALUES",
		"CREATE TABLE t",
		"SELECT CASE END FROM t",
		"SELECT a FROM t trailing garbage ,",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.(*ExplainStmt); !ok {
		t.Errorf("got %T", stmt)
	}
}

func TestParseSoftKeywordsAsIdents(t *testing.T) {
	// "model" is a soft keyword: usable as alias and column qualifier.
	sel, err := ParseSelect("SELECT model.node FROM weights AS model WHERE model.layer_in = -1")
	if err != nil {
		t.Fatal(err)
	}
	id, ok := sel.Items[0].Expr.(*Ident)
	if !ok || id.Table != "model" || id.Name != "node" {
		t.Errorf("qualified ident parsed wrong: %+v", sel.Items[0].Expr)
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT 1;"); err != nil {
		t.Errorf("trailing semicolon rejected: %v", err)
	}
}

func TestStringRoundTripExprs(t *testing.T) {
	// AST String() output must itself be parseable (ML-To-SQL relies on
	// textual SQL as the interchange format).
	q := "SELECT CASE WHEN a > 1 THEN b ELSE c END AS x, ABS(a - b) AS y FROM t WHERE a BETWEEN 1 AND 2"
	sel, err := ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	rendered := "SELECT " + sel.Items[0].Expr.String() + " AS x FROM t WHERE " + sel.Where.String()
	if _, err := ParseSelect(rendered); err != nil {
		t.Errorf("re-parsing rendered AST failed: %v\n%s", err, rendered)
	}
	if !strings.Contains(rendered, "BETWEEN") {
		t.Errorf("rendered: %s", rendered)
	}
}

func TestLexNumberForms(t *testing.T) {
	toks, err := lex("1 1.5 .5 1e3 1.5e-3 2E+4", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "1.5", ".5", "1e3", "1.5e-3", "2E+4"}
	for i, w := range want {
		if toks[i].Kind != TokNumber || toks[i].Text != w {
			t.Errorf("token %d = %q (kind %d), want number %q", i, toks[i].Text, toks[i].Kind, w)
		}
	}
}

func TestParseIsNullAndIn(t *testing.T) {
	sel, err := ParseSelect("SELECT a FROM t WHERE a IS NOT NULL AND b IN (1, 2, 3) AND c NOT IN (4)")
	if err != nil {
		t.Fatal(err)
	}
	// Walk the AND chain and count the constructs.
	var isNulls, ins int
	var visit func(e Expr)
	visit = func(e Expr) {
		switch e := e.(type) {
		case *BinExpr:
			visit(e.L)
			visit(e.R)
		case *IsNullExpr:
			isNulls++
			if !e.Not {
				t.Error("IS NOT NULL lost its NOT")
			}
		case *InExpr:
			ins++
		}
	}
	visit(sel.Where)
	if isNulls != 1 || ins != 2 {
		t.Errorf("found %d IS NULL and %d IN constructs", isNulls, ins)
	}
}

func TestParseShardByAndMeta(t *testing.T) {
	stmt, err := Parse("CREATE TABLE ev (id INTEGER, v DOUBLE) PARTITIONS 2 SHARD BY (id)")
	if err != nil {
		t.Fatal(err)
	}
	if ct := stmt.(*CreateTableStmt); ct.ShardBy != "id" || ct.Partitions != 2 {
		t.Errorf("SHARD BY parsed wrong: %+v", ct)
	}
	stmt, err = Parse("CREATE TABLE ev2 (id INTEGER) SHARD BY id")
	if err != nil {
		t.Fatal(err)
	}
	if ct := stmt.(*CreateTableStmt); ct.ShardBy != "id" {
		t.Errorf("bare SHARD BY parsed wrong: %+v", ct)
	}
	stmt, err = Parse(`CREATE MODEL TABLE m META '{"name":"m"}'`)
	if err != nil {
		t.Fatal(err)
	}
	if ct := stmt.(*CreateTableStmt); !ct.Model || ct.MetaJSON != `{"name":"m"}` {
		t.Errorf("META parsed wrong: %+v", ct)
	}
	if _, err := Parse("CREATE MODEL TABLE m SHARD BY (a)"); err == nil {
		t.Error("SHARD BY on a model table must be rejected")
	}
}

func TestParseKillOrigin(t *testing.T) {
	stmt, err := Parse("KILL 42")
	if err != nil {
		t.Fatal(err)
	}
	if k := stmt.(*KillStmt); k.ID != 42 || k.Origin {
		t.Errorf("KILL parsed wrong: %+v", k)
	}
	stmt, err = Parse("KILL ORIGIN 42")
	if err != nil {
		t.Fatal(err)
	}
	if k := stmt.(*KillStmt); k.ID != 42 || !k.Origin {
		t.Errorf("KILL ORIGIN parsed wrong: %+v", k)
	}
}

func TestParseShardAsColumnName(t *testing.T) {
	// shard/meta/origin are soft keywords — system tables use them as
	// column names (system.queries has a shard column in fleet mode).
	sel, err := ParseSelect("SELECT shard, origin_qid FROM system.queries WHERE shard = 'coordinator'")
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := sel.Items[0].Expr.(*Ident); !ok || id.Name != "shard" {
		t.Errorf("shard as column parsed wrong: %+v", sel.Items[0].Expr)
	}
}

// TestParseConcurrentlyReusesTokens: statements parsed on several goroutines
// at once, each lexed into a token slice the parser reuses, parse as they do
// one at a time (the test runs under -race in CI).
func TestParseConcurrentlyReusesTokens(t *testing.T) {
	stmts := []string{
		"INSERT INTO t VALUES (1, 'a''b', -2.5), (NULL, 'c', 1+2)",
		"SELECT a, COUNT(*) FROM t WHERE b > -3 GROUP BY a ORDER BY 1",
		"INSERT INTO t VALUES " + strings.Repeat("(7, 'x', 0.5), ", 300) + "(8, 'y', 1e3)",
		"SELECT CASE WHEN x = 'it''s' THEN 1 ELSE -9223372036854775808 END FROM s",
	}
	want := make([]Stmt, len(stmts))
	for i, s := range stmts {
		var err error
		if want[i], err = Parse(s); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (g + k) % len(stmts)
				got, err := Parse(stmts[i])
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%.40s…: parsed differently on goroutine %d (%v)", stmts[i], g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
