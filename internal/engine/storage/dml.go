package storage

import (
	"fmt"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// MatchFunc evaluates one UPDATE or DELETE over a batch of at most
// vector.Size rows of a candidate block. The batch holds the statement's
// read columns, pre-update. It returns the ascending positions of the rows
// the statement applies to and, for an UPDATE, one vector per assigned
// column with the new values (of the column's type) at those positions. The
// returned vectors are copied before the next call. It runs under the
// table's DML lock, so it must not modify the table.
type MatchFunc func(b *vector.Batch) (hits []int, vals []*vector.Vector, err error)

// Update rewrites the rows match selects, assigning vals[i] to column
// set[i]. read names the columns match sees, in batch order; blocks whose
// zone maps fail a filter are skipped. Only the assigned columns of blocks
// with a hit are rebuilt, and every rebuilt block is committed under one
// version bump. It returns the number of rows updated.
func (t *Table) Update(read []int, filters []RangeFilter, set []int, match MatchFunc) (int, error) {
	return t.mutate(read, filters, set, false, match)
}

// Delete removes the rows match selects. Blocks with a hit are rebuilt in
// every column (the row count changes) and dropped when emptied; the result
// is committed under one version bump. It returns the number of rows
// deleted.
func (t *Table) Delete(read []int, filters []RangeFilter, match MatchFunc) (int, error) {
	return t.mutate(read, filters, nil, true, match)
}

// blockEdit is one row block's rebuilt column blocks; cols[c] is nil for a
// column left as it was. A DELETE that empties the block sets drop instead.
type blockEdit struct {
	ref  BlockRef
	cols []*block
	drop bool
	hits int
}

func (t *Table) mutate(read []int, filters []RangeFilter, set []int, del bool, match MatchFunc) (int, error) {
	ncols := t.Schema.Len()
	readCols := make([]types.Column, len(read))
	for i, c := range read {
		if c < 0 || c >= ncols {
			return 0, fmt.Errorf("storage: column %d out of range for table %s", c, t.Name)
		}
		readCols[i] = t.Schema.Col(c)
	}
	for _, c := range set {
		if c < 0 || c >= ncols {
			return 0, fmt.Errorf("storage: column %d out of range for table %s", c, t.Name)
		}
	}
	if err := t.checkFilters(filters); err != nil {
		return 0, err
	}

	t.dml.Lock()
	defer t.dml.Unlock()
	snap := t.Snapshot()
	buf := vector.NewBatch(types.NewSchema(readCols...), vector.Size)
	newVals := make([]*vector.Vector, len(set))
	for i, c := range set {
		newVals[i] = vector.New(t.Schema.Col(c).Type, 0)
	}
	var edits []blockEdit
	var hits []int
	for pi, chunks := range snap.parts {
		for bi := range chunks[0] {
			if pruned(chunks, bi, filters) {
				continue
			}
			hits = hits[:0]
			for _, v := range newVals {
				v.Reset()
			}
			n := chunks[0][bi].n
			for lo := 0; lo < n; lo += vector.Size {
				hi := min(lo+vector.Size, n)
				buf.Reset()
				for i, c := range read {
					chunks[c][bi].decodeInto(buf.Vecs[i], lo, hi)
				}
				buf.SetLen(hi - lo)
				sel, vals, err := match(buf)
				if err != nil {
					return 0, err
				}
				if len(sel) == 0 {
					continue
				}
				for _, r := range sel {
					hits = append(hits, lo+r)
				}
				for i, v := range newVals {
					if vals[i].Type() != v.Type() {
						return 0, fmt.Errorf("storage: new %s values for column %s of table %s", vals[i].Type(), t.Schema.Col(set[i]).Name, t.Name)
					}
					v.AppendFrom(vals[i], sel)
				}
			}
			if len(hits) == 0 {
				continue
			}
			e := blockEdit{ref: BlockRef{Part: pi, Block: bi}, cols: make([]*block, ncols), hits: len(hits)}
			if del {
				e.drop = rebuildDeleted(e.cols, t.Schema, chunks, bi, hits)
			} else {
				for i, c := range set {
					col := vector.New(t.Schema.Col(c).Type, n)
					chunks[c][bi].decodeInto(col, 0, n)
					col.Scatter(hits, newVals[i])
					e.cols[c] = buildBlock(col, 0, n)
				}
			}
			edits = append(edits, e)
		}
	}
	if len(edits) == 0 {
		return 0, nil
	}
	return t.commit(edits, del), nil
}

// rebuildDeleted fills cols with block bi minus the rows at hits, or
// reports that no row survives.
func rebuildDeleted(cols []*block, schema *types.Schema, chunks [][]*block, bi int, hits []int) (drop bool) {
	n := chunks[0][bi].n
	if len(hits) == n {
		return true
	}
	keep := make([]int, 0, n-len(hits))
	for r, h := 0, 0; r < n; r++ {
		if h < len(hits) && hits[h] == r {
			h++
			continue
		}
		keep = append(keep, r)
	}
	rows := vector.NewBatch(schema, n)
	for c, v := range rows.Vecs {
		chunks[c][bi].decodeInto(v, 0, n)
	}
	rows.SetLen(n)
	rows.Gather(keep)
	for c, v := range rows.Vecs {
		cols[c] = buildBlock(v, 0, len(keep))
	}
	return false
}

// commit installs the edits: each touched partition gets fresh block lists
// (in-flight scanners keep the old ones), all under one lock and one version
// bump. Block positions are those of the DML snapshot; t.dml keeps them
// valid, since every writer holds it.
func (t *Table) commit(edits []blockEdit, del bool) (changed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for lo := 0; lo < len(edits); {
		pi := edits[lo].ref.Part
		hi := lo
		for hi < len(edits) && edits[hi].ref.Part == pi {
			hi++
		}
		p := t.parts[pi]
		for c, chunk := range p.chunks {
			var next []*block
			for _, e := range edits[lo:hi] {
				if e.cols[c] == nil && !e.drop {
					continue
				}
				if next == nil {
					next = append(make([]*block, 0, len(chunk)), chunk...)
				}
				if e.drop {
					next[e.ref.Block] = nil
				} else {
					next[e.ref.Block] = e.cols[c]
				}
			}
			if next == nil {
				continue
			}
			if del {
				kept := next[:0]
				for _, b := range next {
					if b != nil {
						kept = append(kept, b)
					}
				}
				next = kept
			}
			p.chunks[c] = next
		}
		for _, e := range edits[lo:hi] {
			changed += e.hits
			if del {
				p.rows -= e.hits
			}
		}
		lo = hi
	}
	t.version.Add(1)
	return changed
}
