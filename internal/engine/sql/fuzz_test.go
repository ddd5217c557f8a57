package sql_test

import (
	"testing"

	"indbml/internal/dist"
	"indbml/internal/engine/sql"
)

// FuzzParse feeds the parser — which reads statement text straight off the
// wire — arbitrary strings. Parse must not panic, and every SELECT it
// accepts must survive the coordinator's fragment rendering: rendering the
// parsed tree, parsing that text and rendering again yields the same text.
// The seed corpus is under testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := sql.Parse(text)
		if err != nil {
			return
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
