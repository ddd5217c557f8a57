package relmodel

import (
	"fmt"
	"sort"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// This file keeps the edge-list export that Export replaced: it builds
// every edge as a struct, sorts them into (layer, node, node_in) order and
// copies them into the batch. The generated test holds Export to it row for
// row and block for block.

// edge is one model-table row in (layer, node) pair coordinates, whatever
// the stored layout.
type edge struct {
	layerIn, nodeIn, layer, node int
	w                            [12]float32
}

// exportEdges flattens a model into edge rows following the internal graph
// representation.
func exportEdges(m *nn.Model, meta *Meta) []edge {
	var edges []edge
	layer := 0 // current relational layer of the "previous" nodes

	// Artificial input node (layer -1) connects to every node of relational
	// layer 0 with weight 1.
	for i := 0; i < meta.Layers[0].Units; i++ {
		e := edge{layerIn: -1, nodeIn: 0, layer: 0, node: i}
		e.w[wiIdx] = 1
		edges = append(edges, e)
	}

	for _, l := range m.Layers {
		switch l := l.(type) {
		case *nn.LSTM:
			// Recurrent block: one edge per (m, n) pair of the recurrent
			// kernel, carrying U gates; kernel weights (univariate: one per
			// destination node) and biases are replicated onto each edge.
			next := layer + 1
			for mi := 0; mi < l.Units; mi++ {
				for n := 0; n < l.Units; n++ {
					e := edge{layerIn: layer, nodeIn: mi, layer: next, node: n}
					for g := 0; g < 4; g++ {
						e.w[uiIdx+g] = l.U.At(mi, g*l.Units+n)
						e.w[wiIdx+g] = l.W.At(0, g*l.Units+n)
						e.w[biIdx+g] = l.B[g*l.Units+n]
					}
					edges = append(edges, e)
				}
			}
			layer = next
		case *nn.Dense:
			next := layer + 1
			for mi := 0; mi < l.InputDim(); mi++ {
				for n := 0; n < l.OutputDim(); n++ {
					e := edge{layerIn: layer, nodeIn: mi, layer: next, node: n}
					e.w[wiIdx] = l.W.At(mi, n)
					e.w[biIdx] = l.B[n]
					edges = append(edges, e)
				}
			}
			layer = next
		}
	}
	return edges
}

// referenceExport is Export as the edge list built it.
func referenceExport(m *nn.Model, opts ExportOptions) (*storage.Table, *Meta, error) {
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

	edges := exportEdges(m, meta)
	// Order by (layer, node, node_in): contiguous destination nodes give
	// the hash join's bucket lists a deterministic, cache-friendly order
	// and make the layer ranges block-clustered for zone maps.
	sortEdges(edges)
	b := vector.NewBatch(tbl.Schema, len(edges))
	b.SetLen(len(edges))
	for i, e := range edges {
		key := []int{e.layerIn, e.nodeIn, e.layer, e.node}
		if opts.Layout != LayoutPairs {
			key = []int{nodeID(meta, e.layerIn, e.nodeIn), nodeID(meta, e.layer, e.node)}
		}
		for c, k := range key {
			b.Vecs[c].Int32s()[i] = int32(k)
		}
		for j, w := range e.w {
			b.Vecs[len(key)+j].Float32s()[i] = w
		}
	}
	if err := tbl.Append(b); err != nil {
		return nil, nil, fmt.Errorf("relmodel: exporting %s: %w", name, err)
	}
	return tbl, meta, nil
}

// nodeID maps a (layer, node) pair to the unique node id of Sec. 4.4; the
// artificial input node gets -1.
func nodeID(meta *Meta, layer, node int) int {
	if layer < 0 {
		return -1
	}
	return meta.NodeOffset(layer) + node
}

func sortEdges(edges []edge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.layer != b.layer {
			return a.layer < b.layer
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.nodeIn < b.nodeIn
	})
}
