package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"indbml/internal/blas"
	"indbml/internal/nn"
)

// tolerance is the absolute difference allowed between a prediction the
// database returns and the one internal/nn's forward pass computes on the
// same inputs.
const tolerance = 1e-4

// oracle holds the reference predictions of one model over one fact table,
// indexed by row id (ids are 0..n-1 in every workload).
type oracle struct {
	pred []float32
	avg  float64
}

func newOracle(m *nn.Model, feats [][]float32) *oracle {
	o := &oracle{pred: make([]float32, len(feats))}
	var sum float64
	for i, row := range m.PredictBatch(feats) {
		o.pred[i] = row[0]
		sum += float64(row[0])
	}
	o.avg = sum / float64(len(feats))
	return o
}

// checkCount is the check every operation gets: the row count is exact.
func (o *oracle) checkCount(got int64) error {
	if got != int64(len(o.pred)) {
		return fmt.Errorf("oracle: %d rows, want %d", got, len(o.pred))
	}
	return nil
}

// checkAgg checks a COUNT(*), AVG(prediction) result.
func (o *oracle) checkAgg(count int64, avg float64) error {
	if err := o.checkCount(count); err != nil {
		return err
	}
	if math.IsNaN(avg) || math.Abs(avg-o.avg) > tolerance {
		return fmt.Errorf("oracle: AVG(prediction) = %v, reference %v", avg, o.avg)
	}
	return nil
}

// rowCheck compares a result row by row, by id; without seen it only counts
// the rows, which is what operations after the first do.
type rowCheck struct {
	o    *oracle
	seen []bool
	n    int64
	err  error
}

// rows starts the check of one result; full selects the row-by-row
// comparison over the count-only one.
func (o *oracle) rows(full bool) *rowCheck {
	c := &rowCheck{o: o}
	if full {
		c.seen = make([]bool, len(o.pred))
	}
	return c
}

func (c *rowCheck) add(id int64, pred float64) {
	c.n++
	if c.seen == nil || c.err != nil {
		return
	}
	switch {
	case id < 0 || id >= int64(len(c.seen)):
		c.err = fmt.Errorf("oracle: unknown id %d", id)
	case c.seen[id]:
		c.err = fmt.Errorf("oracle: id %d returned twice", id)
	case math.IsNaN(pred) || math.Abs(pred-float64(c.o.pred[id])) > tolerance:
		c.err = fmt.Errorf("oracle: id %d predicted %v, reference %v", id, pred, c.o.pred[id])
	}
	c.seen[id] = true
}

func (c *rowCheck) done() error {
	if c.err != nil {
		return c.err
	}
	return c.o.checkCount(c.n)
}

// editOracle is the reference for mj_model_update, where every operation
// rewrites one weight of the output layer before it queries. The expected
// AVG(prediction) follows from the mean activation of the last hidden layer,
// which the edits leave alone, so a reference costs a dot product per
// operation instead of a forward pass; fullAvg runs the forward pass itself
// and is what the first operation is held to.
type editOracle struct {
	model *nn.Model // carries every edit applied so far
	out   *nn.Dense // its output layer
	feats [][]float32
	hbar  []float64 // mean activation per unit of the last hidden layer
	// units are the hidden units active enough that an edit of their
	// outgoing weight moves the average by far more than the tolerance — so
	// a stale cached model cannot pass as current.
	units []int
}

func newEditOracle(m *nn.Model, feats [][]float32) (*editOracle, error) {
	e := &editOracle{model: m, feats: feats, out: m.Layers[len(m.Layers)-1].(*nn.Dense)}
	in := blas.NewMat(len(feats), len(feats[0]))
	for i, r := range feats {
		copy(in.Row(i), r)
	}
	h := in
	for _, l := range m.Layers[:len(m.Layers)-1] {
		h = l.Forward(h)
	}
	e.hbar = make([]float64, h.Cols)
	for r := 0; r < h.Rows; r++ {
		for j, v := range h.Row(r) {
			e.hbar[j] += float64(v)
		}
	}
	for j := range e.hbar {
		e.hbar[j] /= float64(h.Rows)
		if e.hbar[j] >= 0.05 {
			e.units = append(e.units, j)
		}
	}
	if len(e.units) == 0 {
		return nil, fmt.Errorf("oracle: model %s has no active hidden unit to edit", m.Name)
	}
	sort.Ints(e.units)
	return e, nil
}

// withModel returns a copy of the oracle that applies its edits to m, a fresh
// instance of the same seeded model.
func (e *editOracle) withModel(m *nn.Model) *editOracle {
	c := *e
	c.model, c.out = m, m.Layers[len(m.Layers)-1].(*nn.Dense)
	return &c
}

// nextEdit draws the edge to rewrite and its new weight: at least 0.25 away
// from the current one, so the expected average moves by at least
// 0.25 × 0.05, a hundred times the tolerance.
func (e *editOracle) nextEdit(rng *rand.Rand) (unit int, w float32) {
	unit = e.units[rng.Intn(len(e.units))]
	w = float32(0.25 + 0.5*rng.Float64())
	if e.out.W.At(unit, 0) > 0 {
		w = -w
	}
	return unit, w
}

// apply records an edit the program has been told to make.
func (e *editOracle) apply(unit int, w float32) { e.out.W.Set(unit, 0, w) }

// avg is the expected AVG(prediction) with every applied edit in effect.
func (e *editOracle) avg() float64 {
	sum := float64(e.out.B[0])
	for j, h := range e.hbar {
		sum += h * float64(e.out.W.At(j, 0))
	}
	return sum
}

// fullAvg is avg computed by the reference forward pass over every row.
func (e *editOracle) fullAvg() float64 { return newOracle(e.model, e.feats).avg }

func (e *editOracle) checkAgg(count int64, avg float64, full bool) error {
	want := e.avg()
	if full {
		want = e.fullAvg()
	}
	if count != int64(len(e.feats)) {
		return fmt.Errorf("oracle: %d rows, want %d", count, len(e.feats))
	}
	if math.IsNaN(avg) || math.Abs(avg-want) > tolerance {
		return fmt.Errorf("oracle: AVG(prediction) = %v, reference with the edit applied %v (stale model?)", avg, want)
	}
	return nil
}
