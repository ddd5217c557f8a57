// Package relmodel implements the paper's relational model representation
// (Sec. 4.1/4.3): a trained neural network is stored in a single generic
// model table holding one row per edge of the (internal) model graph, with
// 12 weight columns — kernel weights W_{i,f,c,o}, recurrent kernel weights
// U_{i,f,c,o} and bias weights b_{i,f,c,o} — all 4-byte floats. Dense layers
// populate only W_i/b_i; LSTM layers populate all twelve. Unused columns are
// zero and compress to almost nothing in the column store.
//
// Two physical layouts exist, mirroring Sec. 4.4's first optimization:
//
//   - LayoutPairs: nodes are identified by (Layer, Node) pairs — the basic
//     representation of Sec. 4.1 with 16 columns;
//   - LayoutNodeID: nodes carry a single unique id assigned by graph
//     traversal, shrinking the table to 14 columns and turning the
//     layer-filter into a range predicate on the node column.
//
// The graph follows the internal representation of Fig. 4: an artificial
// input layer with a single node (id/layer -1), followed by the model's
// input passthrough layer (weight-1 edges), followed by the model layers.
// Bias weights are replicated onto every incoming edge of a node, avoiding
// an extra join at inference time; for LSTM layers the (feature-indexed)
// kernel weights are replicated the same way, and recurrent edges carry the
// recurrent kernel. The recurrent weight block is stored once, not per time
// step (Sec. 4.3.3).
//
// Export emits the rows in (layer, node, node_in) order by construction, not
// by sorting: each layer's rows are a nested loop over its weight matrix,
// destination node outer and source node inner. Rows of one layer are
// therefore contiguous, which block-clusters the layer ranges for zone maps.
package relmodel

import (
	"encoding/json"
	"fmt"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// Layout selects the physical model-table layout.
type Layout uint8

// Layouts.
const (
	// LayoutPairs identifies nodes by (Layer, Node) pairs (Sec. 4.1).
	LayoutPairs Layout = iota
	// LayoutNodeID identifies nodes by a unique id (Sec. 4.4).
	LayoutNodeID
)

// String names the layout.
func (l Layout) String() string {
	if l == LayoutNodeID {
		return "node-id"
	}
	return "pairs"
}

// Weight column names, shared by both layouts.
var weightCols = []string{
	"w_i", "w_f", "w_c", "w_o",
	"u_i", "u_f", "u_c", "u_o",
	"b_i", "b_f", "b_c", "b_o",
}

// Schema returns the model-table schema for a layout.
func Schema(layout Layout) *types.Schema {
	var cols []types.Column
	if layout == LayoutPairs {
		cols = append(cols,
			types.Column{Name: "layer_in", Type: types.Int32},
			types.Column{Name: "node_in", Type: types.Int32},
			types.Column{Name: "layer", Type: types.Int32},
			types.Column{Name: "node", Type: types.Int32},
		)
	} else {
		cols = append(cols,
			types.Column{Name: "node_in", Type: types.Int32},
			types.Column{Name: "node", Type: types.Int32},
		)
	}
	for _, w := range weightCols {
		cols = append(cols, types.Column{Name: w, Type: types.Float32})
	}
	return types.NewSchema(cols...)
}

// LayerMeta describes one relational layer for the catalog (Sec. 5.5: the
// DBMS maintains the model's meta information so ModelJoin calls need no
// manual shape arguments).
type LayerMeta struct {
	Kind       string `json:"kind"` // "input", "dense" or "lstm"
	Units      int    `json:"units"`
	Activation string `json:"activation,omitempty"`
	TimeSteps  int    `json:"time_steps,omitempty"`
	Features   int    `json:"features,omitempty"`
}

// Meta is the catalog entry for a stored model.
type Meta struct {
	Name   string      `json:"name"`
	Layout Layout      `json:"layout"`
	Layers []LayerMeta `json:"layers"` // Layers[0] is the input passthrough layer
}

// MarshalJSON/UnmarshalJSON use the default struct encoding.
func (m *Meta) String() string {
	b, _ := json.Marshal(m)
	return string(b)
}

// InputDim returns the number of model input columns.
func (m *Meta) InputDim() int { return m.Layers[0].Units }

// OutputDim returns the number of prediction columns.
func (m *Meta) OutputDim() int { return m.Layers[len(m.Layers)-1].Units }

// TimeSteps returns the recurrent time steps, or 0 for pure dense models.
func (m *Meta) TimeSteps() int {
	for _, l := range m.Layers {
		if l.Kind == "lstm" {
			return l.TimeSteps
		}
	}
	return 0
}

// Inputs returns the number of input columns a query feeds the model: one
// per time step when a layer is recurrent (its features come from each
// step's column), else InputDim.
func (m *Meta) Inputs() int {
	if ts := m.TimeSteps(); ts > 0 {
		return ts
	}
	return m.InputDim()
}

// NodeOffset returns the first node id of relational layer l in the
// node-id layout: layer 0 starts at 0, each layer follows its predecessor.
func (m *Meta) NodeOffset(l int) int {
	off := 0
	for i := 0; i < l; i++ {
		off += m.Layers[i].Units
	}
	return off
}

// NodeRange returns the [lo, hi] inclusive node-id range of layer l.
func (m *Meta) NodeRange(l int) (int, int) {
	lo := m.NodeOffset(l)
	return lo, lo + m.Layers[l].Units - 1
}

const (
	wiIdx = 0 // kernel gate offsets within the weight vector
	uiIdx = 4
	biIdx = 8
)

// buildMeta derives the relational layer structure from a model.
func buildMeta(m *nn.Model, layout Layout) (*Meta, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	meta := &Meta{Name: m.Name, Layout: layout}
	switch first := m.Layers[0].(type) {
	case *nn.LSTM:
		if first.Features != 1 {
			return nil, fmt.Errorf("relmodel: only univariate LSTM layers (features == 1) are representable, got %d features", first.Features)
		}
		// Input passthrough carries the LSTM width (the input function
		// enumerates the LSTM nodes, Sec. 4.3.1), followed by the recurrent
		// block layer.
		meta.Layers = append(meta.Layers,
			LayerMeta{Kind: "input", Units: first.Units},
			LayerMeta{Kind: "lstm", Units: first.Units, TimeSteps: first.TimeSteps, Features: first.Features},
		)
	case *nn.Dense:
		meta.Layers = append(meta.Layers, LayerMeta{Kind: "input", Units: first.InputDim()})
	}
	for _, l := range m.Layers {
		if d, ok := l.(*nn.Dense); ok {
			meta.Layers = append(meta.Layers, LayerMeta{
				Kind: "dense", Units: d.OutputDim(), Activation: d.Act.String(),
			})
		}
	}
	return meta, nil
}

// ExportOptions configure model-table creation.
type ExportOptions struct {
	// Layout selects the physical layout (default LayoutPairs).
	Layout Layout
	// Partitions for the model table (the build phase of the native
	// ModelJoin parallelizes over them, Sec. 5.2). Default 1.
	Partitions int
	// TableName overrides the table name (default: the model's name).
	TableName string
}

// Export stores a trained model as a model table and returns the table with
// its catalog metadata. It writes the table's columns directly into one
// batch sized to the edge count, with rows in (layer, node, node_in) order
// by construction: within each layer the destination node is the outer
// loop and the source node the inner one, so nothing is sorted. That order
// makes the layer ranges block-clustered for the generated queries' zone-
// map layer filters and gives the hash join's bucket lists a deterministic,
// cache-friendly order. The batch enters storage through one Table.Append.
func Export(m *nn.Model, opts ExportOptions) (*storage.Table, *Meta, error) {
	meta, err := buildMeta(m, opts.Layout)
	if err != nil {
		return nil, nil, err
	}
	name := opts.TableName
	if name == "" {
		name = m.Name
	}
	meta.Name = name
	parts := opts.Partitions
	if parts <= 0 {
		parts = 1
	}
	tbl := storage.NewTable(name, Schema(opts.Layout), storage.Options{Partitions: parts})
	// The decoder's numbering: its edge count, and node ids (ids[l+1] is
	// layer l's first, ids[0] = -1 the artificial input node's).
	d, err := newDecoder(meta, tbl.Schema)
	if err != nil {
		return nil, nil, err
	}
	rows := meta.Layers[0].Units + d.first[len(d.first)-1] // the artificial input node's edges, then the model's
	b := vector.NewBatch(tbl.Schema, rows)
	b.SetLen(rows)
	key := make([][]int32, opts.Layout.KeyColumns())
	for k := range key {
		key[k] = b.Vecs[k].Int32s()
	}
	var w [12][]float32 // w_i … b_o
	for j := range w {
		w[j] = b.Vecs[len(key)+j].Float32s()
	}
	// edge writes the key columns of the next row, the edge from node nodeIn
	// of layer-1 to node node of layer, and returns the row's index.
	row := -1
	edge := func(layer, nodeIn, node int) int {
		row++
		if d.ids == nil {
			key[0][row], key[1][row], key[2][row], key[3][row] = int32(layer-1), int32(nodeIn), int32(layer), int32(node)
		} else {
			key[0][row], key[1][row] = int32(d.ids[layer]+nodeIn), int32(d.ids[layer+1]+node)
		}
		return row
	}
	// The artificial input node feeds every node of relational layer 0
	// with weight 1.
	for n := 0; n < meta.Layers[0].Units; n++ {
		w[wiIdx][edge(0, 0, n)] = 1
	}
	// Model layer i is relational layer i+1 (an LSTM can only be first).
	for i, l := range m.Layers {
		layer := i + 1
		switch l := l.(type) {
		case *nn.Dense:
			for n := 0; n < l.OutputDim(); n++ {
				for mi := 0; mi < l.InputDim(); mi++ {
					r := edge(layer, mi, n)
					w[wiIdx][r] = l.W.At(mi, n)
					w[biIdx][r] = l.B[n]
				}
			}
		case *nn.LSTM:
			// Recurrent block: one edge per (m, n) pair of the recurrent
			// kernel, carrying U gates; kernel weights (univariate: one per
			// destination node) and biases are replicated onto each edge.
			u := l.Units
			for n := 0; n < u; n++ {
				for mi := 0; mi < u; mi++ {
					r := edge(layer, mi, n)
					for g := 0; g < 4; g++ {
						w[uiIdx+g][r] = l.U.At(mi, g*u+n)
						w[wiIdx+g][r] = l.W.At(0, g*u+n)
						w[biIdx+g][r] = l.B[g*u+n]
					}
				}
			}
		}
	}
	if err := tbl.Append(b); err != nil {
		return nil, nil, fmt.Errorf("relmodel: exporting %s: %w", name, err)
	}
	return tbl, meta, nil
}
