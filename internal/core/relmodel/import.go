package relmodel

import (
	"fmt"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// Import reconstructs a runnable model from its relational representation —
// the inverse of Export. Besides enabling round-trip testing, it is how the
// native ModelJoin's build phase and external consumers read models straight
// out of the database.
func Import(tbl *storage.Table, meta *Meta) (*nn.Model, error) {
	edges, err := readEdges(tbl, meta)
	if err != nil {
		return nil, err
	}
	m := &nn.Model{Name: meta.Name}
	for li := 1; li < len(meta.Layers); li++ {
		lm := meta.Layers[li]
		prev := meta.Layers[li-1]
		switch lm.Kind {
		case "lstm":
			l := nn.NewLSTM(lm.Features, lm.Units, lm.TimeSteps)
			seen := make([]bool, lm.Units*lm.Units)
			for _, e := range edges {
				if e.layer != li {
					continue
				}
				if e.layerIn != li-1 {
					return nil, fmt.Errorf("relmodel: layer %d has edge from layer %d", li, e.layerIn)
				}
				seen[e.nodeIn*lm.Units+e.node] = true
				for g := 0; g < 4; g++ {
					l.U.Set(e.nodeIn, g*lm.Units+e.node, e.w[uiIdx+g])
					// Kernel and bias are replicated per destination node;
					// every copy writes the same value.
					l.W.Set(0, g*lm.Units+e.node, e.w[wiIdx+g])
					l.B[g*lm.Units+e.node] = e.w[biIdx+g]
				}
			}
			for i, ok := range seen {
				if !ok {
					return nil, fmt.Errorf("relmodel: %s layer %d missing recurrent edge %d→%d", meta.Name, li, i/lm.Units, i%lm.Units)
				}
			}
			m.Layers = append(m.Layers, l)
		case "dense":
			l := nn.NewDense(prev.Units, lm.Units, mustActivation(lm.Activation))
			count := 0
			for _, e := range edges {
				if e.layer != li {
					continue
				}
				if e.nodeIn >= prev.Units || e.node >= lm.Units {
					return nil, fmt.Errorf("relmodel: %s layer %d edge (%d→%d) out of range", meta.Name, li, e.nodeIn, e.node)
				}
				l.W.Set(e.nodeIn, e.node, e.w[wiIdx])
				l.B[e.node] = e.w[biIdx]
				count++
			}
			if count != prev.Units*lm.Units {
				return nil, fmt.Errorf("relmodel: %s layer %d has %d edges, want %d", meta.Name, li, count, prev.Units*lm.Units)
			}
			m.Layers = append(m.Layers, l)
		default:
			return nil, fmt.Errorf("relmodel: unknown layer kind %q", lm.Kind)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("relmodel: imported model invalid: %w", err)
	}
	return m, nil
}

// readEdges scans all partitions of a model table and decodes the rows,
// translating node ids back to (layer, node) pairs when needed.
func readEdges(tbl *storage.Table, meta *Meta) ([]edge, error) {
	var edges []edge
	for p := 0; p < tbl.Partitions(); p++ {
		sc, err := tbl.NewScanner(p, nil, nil)
		if err != nil {
			return nil, err
		}
		buf := vector.NewBatch(sc.Schema(), vector.Size)
		for sc.Next(buf) {
			for r := 0; r < buf.Len(); r++ {
				e, err := decodeRow(buf, r, meta)
				if err != nil {
					return nil, err
				}
				edges = append(edges, e)
			}
		}
	}
	return edges, nil
}

func decodeRow(b *vector.Batch, r int, meta *Meta) (edge, error) {
	var e edge
	var weightBase int
	if meta.Layout == LayoutPairs {
		e.layerIn = int(b.Vecs[0].Int32s()[r])
		e.nodeIn = int(b.Vecs[1].Int32s()[r])
		e.layer = int(b.Vecs[2].Int32s()[r])
		e.node = int(b.Vecs[3].Int32s()[r])
		weightBase = 4
	} else {
		var err error
		if e.layerIn, e.nodeIn, err = splitNodeID(meta, int(b.Vecs[0].Int32s()[r])); err != nil {
			return e, err
		}
		var err2 error
		if e.layer, e.node, err2 = splitNodeID(meta, int(b.Vecs[1].Int32s()[r])); err2 != nil {
			return e, err2
		}
		weightBase = 2
	}
	for g := 0; g < 12; g++ {
		e.w[g] = b.Vecs[weightBase+g].Float32s()[r]
	}
	return e, nil
}

// splitNodeID inverts nodeID.
func splitNodeID(meta *Meta, id int) (layer, node int, err error) {
	if id < 0 {
		return -1, 0, nil
	}
	off := 0
	for li, lm := range meta.Layers {
		if id < off+lm.Units {
			return li, id - off, nil
		}
		off += lm.Units
	}
	return 0, 0, fmt.Errorf("relmodel: node id %d out of range for model %s", id, meta.Name)
}

func mustActivation(name string) nn.Activation {
	a, err := nn.ParseActivation(name)
	if err != nil {
		return nn.Linear
	}
	return a
}
