package relmodel

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// Import reconstructs a runnable model from its relational representation,
// the inverse of Export. It reads the table with Decode, the reader of the
// native ModelJoin's build phase, so it applies the same checks.
func Import(tbl *storage.Table, meta *Meta) (*nn.Model, error) {
	layers, _, err := Decode(tbl.Snapshot(), meta, true)
	if err != nil {
		return nil, err
	}
	return &nn.Model{Name: meta.Name, Layers: layers}, nil
}

// Decode reads snap, a snapshot of meta's model table, into host layers —
// the build phase's parse (Sec. 5.2) — and returns them with the number of
// column blocks read. It makes two passes, one worker per partition (one
// after another when serial) and a barrier after each: the key pass checks
// every row's edge into its partition's edge set, the sets merge (an edge
// in two is a duplicate, in none missing), and only then are the weight
// matrices allocated for the weight pass, which checks weights finite and
// places them. An error about a row or an edge names the edge, the same one
// serially or not; DESIGN.md lists the checks.
func Decode(snap *storage.Snapshot, meta *Meta, serial bool) ([]nn.Layer, int, error) {
	d, err := newDecoder(meta, snap.Schema())
	if err != nil {
		return nil, 0, err
	}
	keyScans := make([]*storage.Scanner, snap.Partitions())
	rows := 0
	for p := range keyScans {
		if keyScans[p], err = snap.NewScanner(p, []int{0, 1, 2, 3}[:meta.Layout.KeyColumns()], nil); err != nil {
			return nil, 0, err
		}
		rows += keyScans[p].Rows()
	}
	if edges := d.first[len(d.first)-1]; edges > 2*rows {
		return nil, 0, fmt.Errorf("relmodel: model %s has %d rows, too few for the %d edges its meta implies", meta.Name, rows, edges)
	}
	var blocks atomic.Int64
	sets := make([][]uint64, len(keyScans))
	err = forEach(len(keyScans), serial, func(p int) (err error) {
		sets[p], err = d.keys(keyScans[p])
		blocks.Add(int64(keyScans[p].ScannedBlocks))
		return err
	})
	if err == nil {
		err = d.merge(sets)
	}
	if err != nil {
		return nil, int(blocks.Load()), err
	}
	layers := d.alloc()
	err = forEach(len(keyScans), serial, func(p int) error {
		sc, err := snap.NewScanner(p, nil, nil)
		if err != nil {
			return err
		}
		err = d.place(sc, vector.NewBatch(sc.Schema(), min(sc.Rows(), vector.Size)), func(li int) nn.Layer { return layers[li] })
		blocks.Add(int64(sc.ScannedBlocks))
		return err
	})
	return layers, int(blocks.Load()), err
}

// Patch re-reads the given row blocks of snap, with the per-row checks
// only, into the layers stage returns (called once a row touches model
// layer li), and returns the number of column blocks read. It serves a
// delta build, whose key columns and row counts are those of a snapshot
// Decode accepted, so no edge set is built.
func Patch(snap *storage.Snapshot, meta *Meta, blocks []storage.BlockRef, stage func(li int) nn.Layer) (int, error) {
	d, err := newDecoder(meta, snap.Schema())
	if err != nil {
		return 0, err
	}
	buf := vector.NewBatch(snap.Schema(), vector.Size)
	n := 0
	for _, ref := range blocks {
		sc, err := snap.ScanBlock(ref, nil)
		if err != nil {
			return n, err
		}
		err = d.place(sc, buf, stage)
		n += sc.ScannedBlocks
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// KeyColumns returns the number of edge-key columns, which precede the
// weight columns.
func (l Layout) KeyColumns() int {
	if l == LayoutPairs {
		return 4
	}
	return 2
}

// check applies the decoder's layer rules to the META (DESIGN.md lists them).
func (m *Meta) check() error {
	if m.Name == "" || len(m.Layers) < 2 {
		return fmt.Errorf("relmodel: model meta needs a name, an input layer and a model layer")
	}
	if m.Layout != LayoutPairs && m.Layout != LayoutNodeID {
		return fmt.Errorf("relmodel: model %s has unknown layout %d", m.Name, m.Layout)
	}
	nodes := 0
	for li, l := range m.Layers {
		if l.Units <= 0 || l.Units > math.MaxInt32-nodes {
			return fmt.Errorf("relmodel: model %s layer %d has %d units", m.Name, li, l.Units)
		}
		nodes += l.Units
		switch {
		case (li == 0) != (l.Kind == "input"):
			return fmt.Errorf("relmodel: model %s layer %d is %q, but layer 0 and only layer 0 is the input layer", m.Name, li, l.Kind)
		case l.Kind == "dense":
			if _, err := nn.ParseActivation(l.Activation); err != nil {
				return fmt.Errorf("relmodel: model %s layer %d: %w", m.Name, li, err)
			}
		case l.Kind == "lstm":
			if li != 1 || l.Features != 1 || l.TimeSteps <= 0 || m.Layers[0].Units != l.Units {
				return fmt.Errorf("relmodel: model %s layer %d: an LSTM layer is layer 1, univariate, with positive time steps, over an input layer of its width", m.Name, li)
			}
		case li > 0:
			return fmt.Errorf("relmodel: model %s layer %d has unknown kind %q", m.Name, li, l.Kind)
		}
	}
	return nil
}

// decoder reads the rows of one model table. The edge a→b into model layer
// li (relational layer li+1) is number first[li] + b·units[li] + a of the
// edge set, in the order Export writes the rows.
type decoder struct {
	meta  *Meta
	units []int // units[l] is relational layer l's width
	first []int // first[li] is model layer li's first edge; the last entry counts them
	// ids, in the node-id layout: relational layer l's node ids are
	// [ids[l+1], ids[l+2]); ids[0] = -1 numbers the artificial input node.
	ids []int
}

func newDecoder(meta *Meta, schema *types.Schema) (*decoder, error) {
	if err := meta.check(); err != nil {
		return nil, err
	}
	if !schema.Equal(Schema(meta.Layout)) {
		return nil, fmt.Errorf("relmodel: model %s: table schema %s is not the %s layout's", meta.Name, schema, meta.Layout)
	}
	d := &decoder{meta: meta, first: make([]int, len(meta.Layers))}
	for li, l := range meta.Layers {
		d.units = append(d.units, l.Units)
		if li > 0 {
			d.first[li] = d.first[li-1] + d.units[li-1]*l.Units
		}
	}
	if meta.Layout == LayoutNodeID {
		d.ids = []int{-1, 0}
		for _, u := range d.units {
			d.ids = append(d.ids, d.ids[len(d.ids)-1]+u)
		}
	}
	return d, nil
}

// pairs holds one batch's keys as (layer_in, node_in, layer, node) columns.
type pairs [4][]int32

// read returns buf's keys: the stored columns of the pairs layout, or the
// node ids decoded into ids' storage.
func (d *decoder) read(buf *vector.Batch, ids *pairs) pairs {
	n := buf.Len()
	if d.ids == nil {
		return pairs{buf.Vecs[0].Int32s()[:n], buf.Vecs[1].Int32s()[:n], buf.Vecs[2].Int32s()[:n], buf.Vecs[3].Int32s()[:n]}
	}
	for c := range ids {
		ids[c] = slices.Grow(ids[c][:0], n)[:n]
	}
	for c := 0; c < 2; c++ {
		for r, id := range buf.Vecs[c].Int32s()[:n] {
			ids[2*c][r], ids[2*c+1][r] = d.node(id)
		}
	}
	return *ids
}

// node maps a node id of the node-id layout to its relational layer and
// node; an id in no layer maps to layer -2.
func (d *decoder) node(id int32) (layer, node int32) {
	for j := 0; j+1 < len(d.ids); j++ {
		if int(id) < d.ids[j+1] {
			if int(id) < d.ids[j] {
				break
			}
			return int32(j - 1), id - int32(d.ids[j])
		}
	}
	return -2, id
}

// edge checks the edge a→b from relational layer layerIn into layer, which
// enters model layer li; li = -1 marks a passthrough edge into relational
// layer 0, which carries nothing the model reads and is skipped.
func (d *decoder) edge(layerIn, a, layer, b int32) (li int, ok bool) {
	li, u := int(layer)-1, d.units
	return li, li == -1 || uint(li) < uint(len(u)-1) && int(layerIn) == li && uint(a) < uint(u[li]) && uint(b) < uint(u[li+1])
}

// edgeErr says why row r of buf, with keys k, failed edge.
func (d *decoder) edgeErr(buf *vector.Batch, k pairs, r int) error {
	name := d.meta.Name
	layerIn, a, layer, b := int(k[0][r]), int(k[1][r]), int(k[2][r]), int(k[3][r])
	switch {
	case d.ids != nil && (layerIn == -2 || layer == -2):
		return fmt.Errorf("relmodel: model %s edge %d→%d (node ids) has a node id in no layer", name, buf.Vecs[0].Int32s()[r], buf.Vecs[1].Int32s()[r])
	case layer < 0 || layer >= len(d.units):
		return fmt.Errorf("relmodel: model %s edge %d→%d enters layer %d, which does not exist", name, a, b, layer)
	case layerIn != layer-1:
		return fmt.Errorf("relmodel: model %s layer %d has edge %d→%d from layer %d", name, layer, a, b, layerIn)
	}
	return fmt.Errorf("relmodel: model %s layer %d edge %d→%d out of range", name, layer, a, b)
}

// setErr names edge e of the edge set.
func (d *decoder) setErr(what string, e int) error {
	li := 0
	for e >= d.first[li+1] {
		li++
	}
	k, in := e-d.first[li], d.units[li]
	return fmt.Errorf("relmodel: model %s layer %d %s %d→%d", d.meta.Name, li+1, what, k%in, k/in)
}

// keys is the key pass over one partition: it checks every row's edge and
// returns the partition's edge set, one bit per edge.
func (d *decoder) keys(sc *storage.Scanner) ([]uint64, error) {
	set := make([]uint64, (d.first[len(d.first)-1]+63)/64)
	buf := vector.NewBatch(sc.Schema(), min(sc.Rows(), vector.Size))
	var ids pairs
	for sc.Next(buf) {
		k := d.read(buf, &ids)
		for r := range buf.Len() {
			li, ok := d.edge(k[0][r], k[1][r], k[2][r], k[3][r])
			if !ok {
				return nil, d.edgeErr(buf, k, r)
			}
			if li < 0 {
				continue
			}
			e := uint(d.first[li] + int(k[3][r])*d.units[li] + int(k[1][r]))
			if set[e/64]&(1<<(e%64)) != 0 {
				return nil, d.setErr("has duplicate edge", int(e))
			}
			set[e/64] |= 1 << (e % 64)
		}
	}
	return set, nil
}

// merge ORs the partitions' edge sets into the first, at the barrier after
// the key pass: an edge in two sets is a duplicate, one in none is missing.
func (d *decoder) merge(sets [][]uint64) error {
	all := sets[0]
	for _, s := range sets[1:] {
		for i, w := range s {
			if dup := all[i] & w; dup != 0 {
				return d.setErr("has duplicate edge", i*64+bits.TrailingZeros64(dup))
			}
			all[i] |= w
		}
	}
	for i, w := range all {
		if e := i*64 + bits.TrailingZeros64(^w); w != math.MaxUint64 && e < d.first[len(d.first)-1] {
			return d.setErr("missing edge", e)
		}
	}
	return nil
}

// alloc allocates the zeroed model layers.
func (d *decoder) alloc() []nn.Layer {
	var layers []nn.Layer
	for li, lm := range d.meta.Layers[1:] {
		if lm.Kind == "lstm" {
			layers = append(layers, nn.NewLSTM(1, lm.Units, lm.TimeSteps))
			continue
		}
		act, _ := nn.ParseActivation(lm.Activation) // checked by newDecoder
		layers = append(layers, nn.NewDense(d.units[li], lm.Units, act))
	}
	return layers
}

// place is the weight pass over the rows sc yields, read into buf: a NaN or
// ±Inf weight would turn every prediction it reaches into NaN, so each
// column is scanned branch-free (an all-ones exponent plus one carries into
// bit 31) and only one that trips it is searched for the edge; then every
// row's edge is checked and its cells are written to the layer stage returns.
func (d *decoder) place(sc *storage.Scanner, buf *vector.Batch, stage func(li int) nn.Layer) error {
	nkeys := d.meta.Layout.KeyColumns()
	var ids pairs
	var w [12][]float32
	for sc.Next(buf) {
		k := d.read(buf, &ids)
		for c := range w {
			w[c] = buf.Vecs[nkeys+c].Float32s()[:buf.Len()]
			var carry uint32
			for _, v := range w[c] {
				carry |= math.Float32bits(v)&0x7f800000 + 0x00800000
			}
			if carry < 1<<31 {
				continue
			}
			for r, v := range w[c] {
				if v-v == 0 {
					continue
				}
				if li, ok := d.edge(k[0][r], k[1][r], k[2][r], k[3][r]); !ok {
					return d.edgeErr(buf, k, r)
				} else if li >= 0 {
					return fmt.Errorf("relmodel: model %s layer %d node %d: non-finite %s = %v on the edge from node %d",
						d.meta.Name, li+1, k[3][r], weightCols[c], v, k[1][r])
				}
			}
		}
		cur, l := -1, nn.Layer(nil)
		for r := range buf.Len() {
			li, ok := d.edge(k[0][r], k[1][r], k[2][r], k[3][r])
			if !ok {
				return d.edgeErr(buf, k, r)
			}
			if li < 0 {
				continue
			}
			if li != cur {
				cur, l = li, stage(li)
			}
			place(l, int(k[1][r]), int(k[3][r]), &w, r)
		}
	}
	return nil
}

// place writes row r's cells of edge a→b into l: the edge's own, and, from
// the edge out of node 0 only, those every in-edge of b repeats (a dense
// bias; an LSTM gate's input weight and bias), so each cell has one writer.
func place(l nn.Layer, a, b int, w *[12][]float32, r int) {
	// The matrices are indexed in place: this package does not import
	// blas, so the compiler could not inline blas.Mat.Set here.
	switch l := l.(type) {
	case *nn.Dense:
		l.W.Data[a*l.W.Cols+b] = w[wiIdx][r]
		if a == 0 {
			l.B[b] = w[biIdx][r]
		}
	case *nn.LSTM:
		for g := 0; g < 4; g++ {
			col := g*l.Units + b
			l.U.Data[a*l.U.Cols+col] = w[uiIdx+g][r]
			if a == 0 {
				l.W.Data[col] = w[wiIdx+g][r]
				l.B[col] = w[biIdx+g][r]
			}
		}
	}
}

// forEach calls f for partitions 0…n-1, in a goroutine each and one after
// another when serial, waits, and returns the first partition's error.
func forEach(n int, serial bool, f func(p int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := range errs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = f(p)
		}(p)
		if serial {
			wg.Wait()
			if errs[p] != nil {
				break
			}
		}
	}
	wg.Wait()
	return cmp.Or(errs...)
}
