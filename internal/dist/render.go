package dist

import (
	"fmt"
	"strings"

	"indbml/internal/engine/sql"
)

// RenderSelect turns a parsed SELECT back into SQL text. The coordinator
// plans distributed queries on the AST, then ships rewritten fragments to
// shards as text over the ordinary wire protocol — shards need no
// distributed-plan awareness at all. Expressions render via Expr.String
// and names via sql.QuoteIdent, both of which re-parse to the same tree
// (string literals double their quotes, names that are not plain words are
// double-quoted); FuzzParse checks that rendering is a fixed point.
func RenderSelect(sel *sql.SelectStmt) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if sel.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range sel.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case it.Star && it.StarTable != "":
			sb.WriteString(sql.QuoteIdent(it.StarTable) + ".*")
		case it.Star:
			sb.WriteString("*")
		default:
			sb.WriteString(it.Expr.String())
			if it.Alias != "" {
				sb.WriteString(" AS " + sql.QuoteIdent(it.Alias))
			}
		}
	}
	if sel.From != nil {
		sb.WriteString(" FROM ")
		sb.WriteString(renderRef(sel.From))
	}
	if sel.Where != nil {
		sb.WriteString(" WHERE " + sel.Where.String())
	}
	if len(sel.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range sel.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if sel.Having != nil {
		sb.WriteString(" HAVING " + sel.Having.String())
	}
	if len(sel.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range sel.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.E.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if sel.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", sel.Limit)
	}
	return sb.String()
}

func renderRef(ref sql.TableRef) string {
	switch r := ref.(type) {
	case *sql.BaseTable:
		if r.Alias != "" {
			return sql.QuoteTableName(r.Name) + " AS " + sql.QuoteIdent(r.Alias)
		}
		return sql.QuoteTableName(r.Name)
	case *sql.SubqueryRef:
		return "(" + RenderSelect(r.Select) + ") AS " + sql.QuoteIdent(r.Alias)
	case *sql.JoinRef:
		if r.On == nil {
			return renderRef(r.Left) + ", " + renderRef(r.Right)
		}
		return renderRef(r.Left) + " JOIN " + renderRef(r.Right) + " ON " + r.On.String()
	case *sql.ModelJoinRef:
		s := renderRef(r.Fact) + " MODEL JOIN " + sql.QuoteIdent(r.ModelName)
		if len(r.Inputs) > 0 {
			inputs := make([]string, len(r.Inputs))
			for i, in := range r.Inputs {
				inputs[i] = sql.QuoteIdent(in)
			}
			s += " PREDICT (" + strings.Join(inputs, ", ") + ")"
		}
		if r.Device != "" {
			s += " USING DEVICE " + (&sql.StringLit{Val: r.Device}).String()
		}
		return s
	default:
		panic(fmt.Sprintf("dist: unknown table ref %T", ref))
	}
}
