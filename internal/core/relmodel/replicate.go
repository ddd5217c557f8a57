package relmodel

import (
	"encoding/json"
	"fmt"
	"strings"

	"indbml/internal/engine/storage"
)

// ParseMeta parses the JSON form produced by Meta.String — the payload of
// the CREATE MODEL TABLE ... META '<json>' clause. The activation functions
// per layer live only here, not in the weight rows, so a model shipped as
// SQL needs this document to be MODEL JOIN-able on the receiving engine.
// The document must pass the decoder's layer rules (Meta.check), so a model
// the decoder would refuse is refused at CREATE.
func ParseMeta(text string) (*Meta, error) {
	var m Meta
	if err := json.Unmarshal([]byte(text), &m); err != nil {
		return nil, fmt.Errorf("relmodel: parsing model meta: %w", err)
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	return &m, nil
}

// CreateStatement renders the statement that recreates the model table on
// a remote engine over the wire protocol: a CREATE MODEL TABLE carrying the
// metadata JSON inline, so the receiving engine registers the model, not
// just the table. The weight rows follow as a row stream. Unlike
// WriteLoadSQL — which emits portable plain SQL for any engine — it depends
// on this dialect's META clause.
func CreateStatement(tbl *storage.Table, meta *Meta) string {
	create := fmt.Sprintf("CREATE MODEL TABLE %s META '%s'",
		tbl.Name, strings.ReplaceAll(meta.String(), "'", "''"))
	if p := tbl.Partitions(); p > 1 {
		create += fmt.Sprintf(" PARTITIONS %d", p)
	}
	return create
}
