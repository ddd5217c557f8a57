package sql_test

import (
	"reflect"
	"testing"

	"indbml/internal/dist"
	"indbml/internal/engine/sql"
)

// FuzzParse feeds the parser — which reads statement text straight off the
// wire — arbitrary strings. Parse must not panic. A statement it accepts
// parses to the same statement type behind a comment line and behind
// leading whitespace, since servers and shells dispatch on that type. Every
// SELECT it accepts must survive the coordinator's fragment rendering:
// rendering the parsed tree, parsing that text and rendering again yields
// the same text. The seed corpus is under testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := sql.Parse(text)
		if err != nil {
			return
		}
		for _, prefix := range []string{"-- c\n", " \t\n"} {
			again, err := sql.Parse(prefix + text)
			if err != nil || reflect.TypeOf(again) != reflect.TypeOf(stmt) {
				t.Fatalf("%q parses to %T, but behind %q to %T (%v)", text, stmt, prefix, again, err)
			}
		}
		sel, ok := stmt.(*sql.SelectStmt)
		if !ok {
			return
		}
		rendered := dist.RenderSelect(sel)
		again, err := sql.ParseSelect(rendered)
		if err != nil {
			t.Fatalf("rendered SELECT %q does not parse: %v", rendered, err)
		}
		if got := dist.RenderSelect(again); got != rendered {
			t.Fatalf("render is not a fixed point:\n first %q\nsecond %q", rendered, got)
		}
	})
}
