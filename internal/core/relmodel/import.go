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
// out of the database. It decodes each row straight into its layer in one
// pass over the table and validates the table as it goes: every layer needs
// each of its edges exactly once, from the layer before it, within the
// widths meta declares. The input passthrough rows (layer 0) carry only the
// constant weight 1 and are skipped.
func Import(tbl *storage.Table, meta *Meta) (*nn.Model, error) {
	m := &nn.Model{Name: meta.Name}
	layers := make([]*importLayer, len(meta.Layers))
	for li := 1; li < len(meta.Layers); li++ {
		lm, in := meta.Layers[li], meta.inUnits(li)
		l := &importLayer{in: in, out: lm.Units, seen: make([]bool, in*lm.Units)}
		switch lm.Kind {
		case "lstm":
			l.lstm = nn.NewLSTM(lm.Features, lm.Units, lm.TimeSteps)
			m.Layers = append(m.Layers, l.lstm)
		case "dense":
			l.dense = nn.NewDense(l.in, lm.Units, mustActivation(lm.Activation))
			m.Layers = append(m.Layers, l.dense)
		default:
			return nil, fmt.Errorf("relmodel: unknown layer kind %q", lm.Kind)
		}
		layers[li] = l
	}
	nkeys := tbl.Schema.Len() - len(weightCols)
	for p := 0; p < tbl.Partitions(); p++ {
		sc, err := tbl.NewScanner(p, nil, nil)
		if err != nil {
			return nil, err
		}
		buf := vector.NewBatch(sc.Schema(), vector.Size)
		for sc.Next(buf) {
			w := buf.Vecs[nkeys:]
			for r := 0; r < buf.Len(); r++ {
				layerIn, nodeIn, layer, node, err := rowKey(buf, r, meta)
				if err != nil {
					return nil, err
				}
				if layer == 0 {
					continue
				}
				if layer < 0 || layer >= len(layers) {
					return nil, fmt.Errorf("relmodel: %s has an edge into layer %d, which does not exist", meta.Name, layer)
				}
				l := layers[layer]
				if layerIn != layer-1 {
					return nil, fmt.Errorf("relmodel: %s layer %d has edge from layer %d", meta.Name, layer, layerIn)
				}
				if nodeIn < 0 || nodeIn >= l.in || node < 0 || node >= l.out {
					return nil, fmt.Errorf("relmodel: %s layer %d edge (%d→%d) out of range", meta.Name, layer, nodeIn, node)
				}
				k := nodeIn*l.out + node
				if l.seen[k] {
					return nil, fmt.Errorf("relmodel: %s layer %d has duplicate edge %d→%d", meta.Name, layer, nodeIn, node)
				}
				l.seen[k] = true
				if l.dense != nil {
					l.dense.W.Set(nodeIn, node, w[wiIdx].Float32s()[r])
					l.dense.B[node] = w[biIdx].Float32s()[r]
					continue
				}
				for g := 0; g < 4; g++ {
					// Kernel and bias are replicated per destination node;
					// every copy writes the same value.
					l.lstm.U.Set(nodeIn, g*l.out+node, w[uiIdx+g].Float32s()[r])
					l.lstm.W.Set(0, g*l.out+node, w[wiIdx+g].Float32s()[r])
					l.lstm.B[g*l.out+node] = w[biIdx+g].Float32s()[r]
				}
			}
		}
	}
	for li, l := range layers[1:] {
		for k, ok := range l.seen {
			if !ok {
				return nil, fmt.Errorf("relmodel: %s layer %d missing edge %d→%d", meta.Name, li+1, k/l.out, k%l.out)
			}
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("relmodel: imported model invalid: %w", err)
	}
	return m, nil
}

// importLayer is one relational layer being read back: its widths, which
// of its in×out edges have been seen, and the nn layer they fill.
type importLayer struct {
	in, out int
	seen    []bool // [nodeIn*out + node]
	dense   *nn.Dense
	lstm    *nn.LSTM
}

// rowKey decodes row r's edge in (layer, node) pair coordinates, whatever
// the stored layout.
func rowKey(b *vector.Batch, r int, meta *Meta) (layerIn, nodeIn, layer, node int, err error) {
	if meta.Layout == LayoutPairs {
		return int(b.Vecs[0].Int32s()[r]), int(b.Vecs[1].Int32s()[r]),
			int(b.Vecs[2].Int32s()[r]), int(b.Vecs[3].Int32s()[r]), nil
	}
	if layerIn, nodeIn, err = splitNodeID(meta, int(b.Vecs[0].Int32s()[r])); err != nil {
		return
	}
	layer, node, err = splitNodeID(meta, int(b.Vecs[1].Int32s()[r]))
	return
}

// splitNodeID maps a node id of Sec. 4.4 back to its (layer, node) pair;
// the artificial input node's -1 maps to layer -1.
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
