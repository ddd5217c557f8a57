package modeljoin

import (
	"runtime"

	"indbml/internal/blas"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// inferScratch is one packed forward pass's device working set: activation
// buffers per layer boundary and, for an LSTM-first model, the recurrent
// state. Allocating and freeing it per pass dominated short-query latency
// once the build phase became cacheable, so builtModel keeps a bounded free
// list: RunPacked pops a scratch, returns it when the pass ends, and only
// pool overflow or model eviction actually frees device memory.
type inferScratch struct {
	rows int // row capacity every buffer is sized for
	bufs []blas.Mat
	lstm *lstmScratch
}

// lstmScratch holds the LSTM working set of Listing 5.
type lstmScratch struct {
	series []float32 // host: the input series transposed, timeSteps×rows
	x      blas.Mat  // device copy of series (rows are time steps)
	h, c   blas.Mat
	z      [4]blas.Mat
	tmp    blas.Mat
}

// newScratch allocates a working set sized for rows feature rows (at least
// the engine's vector.Size; larger for the scheduler's coalesced
// super-batches).
func (m *builtModel) newScratch(rows int) *inferScratch {
	dev := m.dev
	s := &inferScratch{rows: rows}
	first := m.layers[0]
	if first.kind == nn.KindLSTM {
		s.lstm = &lstmScratch{
			series: make([]float32, first.timeSteps*rows),
			x:      dev.NewMat(first.timeSteps, rows),
			h:      dev.NewMat(rows, first.units),
			c:      dev.NewMat(rows, first.units),
			tmp:    dev.NewMat(rows, first.units),
		}
		for g := 0; g < 4; g++ {
			s.lstm.z[g] = dev.NewMat(rows, first.units)
		}
		s.bufs = append(s.bufs, blas.Mat{}) // layer 0 output is the LSTM h state
	} else {
		s.bufs = append(s.bufs, dev.NewMat(rows, first.inDim))
	}
	for _, l := range m.layers {
		s.bufs = append(s.bufs, dev.NewMat(rows, l.units))
	}
	return s
}

// free releases the scratch's device memory.
func (s *inferScratch) free(dev interface{ Free(blas.Mat) }) {
	for _, b := range s.bufs {
		if b.Data != nil {
			dev.Free(b)
		}
	}
	if s.lstm != nil {
		dev.Free(s.lstm.x)
		dev.Free(s.lstm.h)
		dev.Free(s.lstm.c)
		dev.Free(s.lstm.tmp)
		for g := 0; g < 4; g++ {
			dev.Free(s.lstm.z[g])
		}
	}
	s.bufs, s.lstm = nil, nil
}

// getScratch pops a pooled working set with capacity for at least minRows
// rows, or allocates a fresh one. The acquisition is shape-aware: coalesced
// super-batches (which exceed vector.Size rows) pick the smallest adequate
// pooled entry instead of thrashing reallocations, and single-batch callers
// don't burn an oversized working set a super-batch could reuse.
func (m *builtModel) getScratch(minRows int) *inferScratch {
	if minRows < vector.Size {
		minRows = vector.Size
	}
	m.scratchMu.Lock()
	best := -1
	for i, s := range m.scratchPool {
		if s.rows >= minRows && (best < 0 || s.rows < m.scratchPool[best].rows) {
			best = i
		}
	}
	if best >= 0 {
		s := m.scratchPool[best]
		last := len(m.scratchPool) - 1
		m.scratchPool[best] = m.scratchPool[last]
		m.scratchPool = m.scratchPool[:last]
		m.scratchMu.Unlock()
		return s
	}
	m.scratchMu.Unlock()
	// Round the capacity up to a multiple of vector.Size so super-batches of
	// similar (but not identical) size land on one pooled allocation.
	rows := (minRows + vector.Size - 1) / vector.Size * vector.Size
	return m.newScratch(rows)
}

// putScratch returns a working set to the pool. Past the bound (enough for
// full partition parallelism with headroom) the pool keeps the larger of s
// and its smallest entry and releases the other, so it converges on the
// capacities the largest super-batches need: were s dropped instead, a pool
// that filled with small entries first would reallocate the working set of
// every larger super-batch for as long as the model lives. After the model
// was freed, s is released.
func (m *builtModel) putScratch(s *inferScratch) {
	limit := 2 * runtime.GOMAXPROCS(0)
	m.scratchMu.Lock()
	switch {
	case m.freed:
	case len(m.scratchPool) < limit:
		m.scratchPool = append(m.scratchPool, s)
		s = nil
	default:
		small := 0
		for i, p := range m.scratchPool {
			if p.rows < m.scratchPool[small].rows {
				small = i
			}
		}
		if m.scratchPool[small].rows < s.rows {
			m.scratchPool[small], s = s, m.scratchPool[small]
		}
	}
	m.scratchMu.Unlock()
	if s != nil {
		s.free(m.dev)
	}
}

// hostBufs is one operator instance's host working set for a batch of up
// to vector.Size rows: the gathered feature rows it submits, the prediction
// rows the scheduler writes back, and the prediction column vectors its
// output batch carries. Pooled on the model like the device scratch, so a
// statement over a cached model allocates none of it.
type hostBufs struct {
	staging []float32        // vector.Size×InputDim
	preds   []float32        // vector.Size×OutputDim
	cols    []*vector.Vector // OutputDim FLOAT vectors
}

// getHost pops a pooled host working set or allocates a fresh one.
func (m *builtModel) getHost() *hostBufs {
	m.scratchMu.Lock()
	if n := len(m.hostPool); n > 0 {
		h := m.hostPool[n-1]
		m.hostPool = m.hostPool[:n-1]
		m.scratchMu.Unlock()
		return h
	}
	m.scratchMu.Unlock()
	h := &hostBufs{
		staging: make([]float32, vector.Size*m.InputDim()),
		preds:   make([]float32, vector.Size*m.OutputDim()),
	}
	for j := 0; j < m.OutputDim(); j++ {
		h.cols = append(h.cols, vector.New(types.Float32, vector.Size))
	}
	return h
}

// putHost returns a host working set to the pool, within the same bound as
// the device scratch; past it, or after the model was freed, it is dropped.
func (m *builtModel) putHost(h *hostBufs) {
	m.scratchMu.Lock()
	if !m.freed && len(m.hostPool) < 2*runtime.GOMAXPROCS(0) {
		m.hostPool = append(m.hostPool, h)
	}
	m.scratchMu.Unlock()
}

// free releases all device memory held by the model: pooled scratch and the
// layer weight/bias matrices. Called once, when the model leaves the artifact
// cache and the last operator using it has closed.
func (m *builtModel) free() {
	m.scratchMu.Lock()
	pool := m.scratchPool
	m.scratchPool, m.hostPool, m.freed = nil, nil, true
	m.scratchMu.Unlock()
	for _, s := range pool {
		s.free(m.dev)
	}
	dev := m.dev
	for _, l := range m.layers {
		if l.w.Data != nil {
			dev.Free(l.w)
		}
		for g := 0; g < 4; g++ {
			if l.wg[g].Data != nil {
				dev.Free(l.wg[g])
			}
			if l.ug[g].Data != nil {
				dev.Free(l.ug[g])
			}
		}
	}
	// The scheduler may hold the model a while longer (an idle queue is
	// keyed on it); drop the snapshot too, or the model-table blocks it
	// names would outlive every version that needs them.
	m.layers, m.snap = nil, nil
}

// pin marks one operator as actively using the shared model's device state.
func (s *SharedModel) pin() {
	s.mu.Lock()
	s.pins++
	s.mu.Unlock()
}

// unpin releases one operator's hold; the last unpin after an eviction frees
// the device memory.
func (s *SharedModel) unpin() {
	s.mu.Lock()
	s.pins--
	doFree := s.evicted && s.pins == 0 && s.built != nil
	s.mu.Unlock()
	if doFree {
		s.built.free()
	}
}

// Pin marks an external holder of the shared model — the artifact cache
// takes one pin on behalf of the querying statement when it hands the model
// out, closing the window between hand-out and the operator's own pin at
// Open during which an eviction would otherwise free the device memory out
// from under the statement.
func (s *SharedModel) Pin() { s.pin() }

// Unpin drops a Pin. The last unpin after an eviction frees the device
// memory.
func (s *SharedModel) Unpin() { s.unpin() }

// Release marks the shared model as evicted from the artifact cache. Device
// memory is reclaimed immediately when no operator holds the model, otherwise
// deferred to the last closing operator; a base offered by SetBase that no
// build took is unpinned. Safe to call more than once.
func (s *SharedModel) Release() {
	if base := s.takeBase(); base != nil {
		base.Unpin()
	}
	s.mu.Lock()
	if s.evicted {
		s.mu.Unlock()
		return
	}
	s.evicted = true
	doFree := s.pins == 0 && s.built != nil
	s.mu.Unlock()
	if doFree {
		s.built.free()
	}
}
