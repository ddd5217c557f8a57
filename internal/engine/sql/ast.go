package sql

import (
	"fmt"
	"strings"
	"time"
)

// Stmt is any parsed SQL statement.
type Stmt interface{ stmt() }

// Expr is any parsed scalar expression (unbound; binding happens in the
// planner).
type Expr interface {
	fmt.Stringer
	expr()
}

// --- Statements ---

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef // nil means a FROM-less SELECT of constants
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 = no limit
}

func (*SelectStmt) stmt() {}

// SelectItem is one projection: expression with optional alias, or a star.
type SelectItem struct {
	Star      bool
	StarTable string // qualified star: t.*
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	E    Expr
	Desc bool
}

// TableRef is a FROM-clause item.
type TableRef interface{ tableRef() }

// BaseTable names a stored table.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRef() {}

// SubqueryRef is a parenthesized SELECT in FROM, with a mandatory alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryRef) tableRef() {}

// JoinRef is an explicit or implicit (comma) join of two refs. Only inner
// joins exist in this dialect; a nil On means cross join.
type JoinRef struct {
	Left, Right TableRef
	On          Expr
}

func (*JoinRef) tableRef() {}

// ModelJoinRef is the paper's MODEL JOIN extension:
//
//	fact MODEL JOIN model_table
//	     [PREDICT (col, ...)]          -- input columns; default: all non-ID
//	     [USING DEVICE 'cpu'|'gpu']    -- execution device; default cpu
//
// The planner lowers it to the native ModelJoin operator (Sec. 5).
type ModelJoinRef struct {
	Fact      TableRef
	ModelName string
	Inputs    []string // explicit input/prediction columns, empty = default
	Device    string   // "", "cpu" or "gpu"
}

func (*ModelJoinRef) tableRef() {}

// CreateTableStmt creates a base table or, with Model set, a model table
// with the fixed relational model schema of Sec. 4.1 (Sec. 5.5's semantic
// table creation).
type CreateTableStmt struct {
	Name       string
	Model      bool
	Cols       []ColDef
	Partitions int    // 0 = default
	SortedBy   string // optional sorted-by column name
	// ShardBy is the hash-partitioning column from SHARD BY (col). A plain
	// (non-coordinator) engine records it as metadata only; the coordinator's
	// shard catalog uses it to scatter rows across shard daemons.
	ShardBy string
	// MetaJSON carries relational-model metadata for CREATE MODEL TABLE ...
	// META '<json>' (a serialized relmodel.Meta). The activation functions
	// per layer live only in the metadata, not the weight rows, so shipping
	// a model over plain SQL needs this clause to make the table
	// MODEL JOIN-able on the receiving engine.
	MetaJSON string
}

func (*CreateTableStmt) stmt() {}

// ColDef is one column definition.
type ColDef struct {
	Name string
	Type string
}

// InsertStmt inserts literal rows. Its VALUES cells lie row after row in
// Cells; Rows[i] is the end of row i there, so Row(i) is row i.
type InsertStmt struct {
	Table string
	Cols  []string // optional explicit column list
	Cells []Cell
	Rows  []int
}

func (*InsertStmt) stmt() {}

// Row returns the cells of VALUES row i.
func (s *InsertStmt) Row(i int) []Cell {
	lo := 0
	if i > 0 {
		lo = s.Rows[i-1]
	}
	return s.Cells[lo:s.Rows[i]]
}

// Cell is one VALUES cell. A cell that is a single literal token keeps the
// token: Lit is TokNumber (Text is the number, its sign included),
// TokString (Text is the value) or TokKeyword (Text is NULL, TRUE or FALSE).
// Any other cell is an expression: Lit is TokEOF and Expr holds it.
type Cell struct {
	Lit  TokKind
	Text string
	Expr Expr
}

// DeleteStmt removes rows matching Where (all rows when nil).
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// UpdateStmt assigns Exprs[i] to column Cols[i] for rows matching Where
// (all rows when nil). Assignment expressions may reference any column of
// the table (pre-update values).
type UpdateStmt struct {
	Table string
	Cols  []string
	Exprs []Expr
	Where Expr
}

func (*UpdateStmt) stmt() {}

// DropTableStmt drops a table.
type DropTableStmt struct{ Name string }

func (*DropTableStmt) stmt() {}

// CreateAlertStmt declares an SLO alert rule evaluated against the
// telemetry sampler's metrics history each tick:
//
//	CREATE ALERT name ON <signal> <op> <threshold> [FOR <duration>]
//
// where <signal> is a bare metric name (its latest value) or fn(metric)
// with fn one of rate (per-second delta between adjacent samples), p50, or
// p99 (interval quantiles from histogram-bucket deltas, in the histogram's
// native unit). ALERT and FOR are soft words — plain identifiers to the
// lexer — so existing queries can keep using them as column names.
type CreateAlertStmt struct {
	Name      string
	Fn        string // "", "rate", "p50", "p99"
	Metric    string
	Op        string // ">", "<", ">=", "<="
	Threshold float64
	For       time.Duration // 0 = fire on the first true evaluation
}

func (*CreateAlertStmt) stmt() {}

// DropAlertStmt removes an alert rule by name.
type DropAlertStmt struct{ Name string }

func (*DropAlertStmt) stmt() {}

// ExplainStmt wraps a SELECT for plan display. With Analyze set (EXPLAIN
// ANALYZE) the statement is executed and the plan is annotated with
// per-operator runtime statistics.
type ExplainStmt struct {
	Select  *SelectStmt
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// KillStmt cancels in-flight statements. KILL <query_id> cancels the one
// statement with that flight-recorder query ID (surfaced by
// system.active_queries and MsgDone). KILL ORIGIN <query_id> (Origin set)
// cancels every statement whose *origin* — the coordinator query ID stamped
// on distributed shard fragments — matches, which is how coordinator-side
// KILL reaches all fragments of a scattered query.
type KillStmt struct {
	ID     uint64
	Origin bool
}

func (*KillStmt) stmt() {}

// --- Expressions ---

// Ident is a possibly qualified column reference.
type Ident struct {
	Table string // optional qualifier
	Name  string
}

func (*Ident) expr() {}

// String implements fmt.Stringer.
func (i *Ident) String() string {
	if i.Table != "" {
		return QuoteIdent(i.Table) + "." + QuoteIdent(i.Name)
	}
	return QuoteIdent(i.Name)
}

// QuoteIdent renders a name so that it parses back as the same name: a
// word the lexer reads as an identifier as is, anything else (a keyword,
// spaces, punctuation, a leading digit) double-quoted. Rendered SQL — the
// fragments a coordinator ships to shards — relies on it.
func QuoteIdent(name string) string {
	if isPlainIdent(name) {
		return name
	}
	return `"` + name + `"`
}

// QuoteTableName is QuoteIdent for a table name, which the parser may have
// folded from a qualified "schema.table": two plain words keep their dot,
// anything else is quoted as one identifier, which parses to the same name.
func QuoteTableName(name string) string {
	if q, t, ok := strings.Cut(name, "."); ok && isPlainIdent(q) && isPlainIdent(t) {
		return name
	}
	return QuoteIdent(name)
}

func isPlainIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	if _, ok := keyword(s); ok {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return true
}

// NumberLit is an unparsed numeric literal (typing happens at bind time).
type NumberLit struct{ Text string }

func (*NumberLit) expr() {}

// String implements fmt.Stringer.
func (n *NumberLit) String() string { return n.Text }

// StringLit is a string literal.
type StringLit struct{ Val string }

func (*StringLit) expr() {}

// String implements fmt.Stringer. Embedded quotes are doubled, so the
// rendering re-parses to the same literal (distributed fragments are
// rendered back to SQL text before shipping to shards).
func (s *StringLit) String() string { return "'" + strings.ReplaceAll(s.Val, "'", "''") + "'" }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Val bool }

func (*BoolLit) expr() {}

// String implements fmt.Stringer.
func (b *BoolLit) String() string {
	if b.Val {
		return "TRUE"
	}
	return "FALSE"
}

// NullLit is NULL.
type NullLit struct{}

func (*NullLit) expr() {}

// String implements fmt.Stringer.
func (*NullLit) String() string { return "NULL" }

// BinExpr is a binary operation; Op holds the SQL spelling (+, -, *, /, %,
// =, <>, <, <=, >, >=, AND, OR).
type BinExpr struct {
	Op   string
	L, R Expr
}

func (*BinExpr) expr() {}

// String implements fmt.Stringer.
func (b *BinExpr) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string
	E  Expr
}

func (*UnaryExpr) expr() {}

// String implements fmt.Stringer.
func (u *UnaryExpr) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.E) }

// FuncCall is a scalar or aggregate function call; Star marks COUNT(*).
type FuncCall struct {
	Name string
	Args []Expr
	Star bool
}

func (*FuncCall) expr() {}

// String implements fmt.Stringer.
func (f *FuncCall) String() string {
	if f.Star {
		return QuoteIdent(f.Name) + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", QuoteIdent(f.Name), strings.Join(args, ", "))
}

// CaseExpr is a searched CASE.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) expr() {}

// String implements fmt.Stringer.
func (c *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// CastExpr is CAST(e AS type).
type CastExpr struct {
	E    Expr
	Type string
}

func (*CastExpr) expr() {}

// String implements fmt.Stringer.
func (c *CastExpr) String() string { return fmt.Sprintf("CAST(%s AS %s)", c.E, QuoteIdent(c.Type)) }

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

// String implements fmt.Stringer.
func (i *IsNullExpr) String() string {
	if i.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// InExpr is e [NOT] IN (v1, v2, ...).
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

func (*InExpr) expr() {}

// String implements fmt.Stringer.
func (in *InExpr) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	not := ""
	if in.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", in.E, not, strings.Join(parts, ", "))
}

// BetweenExpr is e BETWEEN lo AND hi (inclusive), used by the optimized
// layer-range predicates of Sec. 4.4.
type BetweenExpr struct {
	E      Expr
	Lo, Hi Expr
	Not    bool
}

func (*BetweenExpr) expr() {}

// String implements fmt.Stringer.
func (b *BetweenExpr) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", b.E, not, b.Lo, b.Hi)
}
