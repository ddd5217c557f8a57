// Package exec implements the engine's physical operators. Execution
// follows the Volcano iterator model (Graefe 1994) — open/next/close — but
// vectorized in the X100 style: Next produces a batch of up to vector.Size
// tuples rather than a single row. The ModelJoin operator of the paper
// (package core/modeljoin) plugs into this interface as a regular operator,
// so inference can be nested into arbitrary queries (Sec. 5.1).
package exec

import (
	"context"
	"errors"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// IsCancellation reports whether an execution error originates from context
// cancellation or deadline expiry rather than a genuine query failure.
// Operators propagate ctx errors verbatim, so errors.Is suffices.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Operator is a physical query operator. The contract:
//
//   - Open acquires resources and must be called exactly once before Next;
//   - Next returns the next batch, or nil at end-of-stream;
//   - Close releases resources; it is idempotent.
//
// Batch ownership. The batch Next returns belongs to the operator, which
// allocates its output buffers at Open and refills them on every call
// (Scan, Project, HashJoin and both aggregates do; an operator may also hand
// out a fresh batch). The caller may read it, and narrow it in place the way
// Filter and Limit do, until its next call to Next or Close on the same
// operator; after that the contents are gone. A consumer that keeps rows
// longer copies them first — Collect, Sort, TopN, a join's build side and
// Exchange all do; the wire streamer instead encodes the batch into its
// frame before calling Next again. Nothing is retained across statements:
// buffers live from Open to Close.
//
// Expression results. Bound expression trees are shared, by an Exchange's
// partition instances among others; an operator that evaluates them builds
// one expr.Evaluator per expression at Open, which owns the result vector of
// every computed node and refills it per batch. A result stays valid until
// the next evaluation on the same evaluator — for Project's output columns,
// its next Next — and follows the rules above: narrow it in place or copy
// it. The grouper behind both aggregates and HashJoin use their key and
// argument vectors before evaluating again; the grouper's first-seen keys,
// Sort's key columns and TopN's heap rows are copies.
type Operator interface {
	// Schema describes the operator's output columns.
	Schema() *types.Schema
	// Open prepares the operator (and its children) for execution.
	Open() error
	// Next returns the next output batch, or nil when exhausted.
	Next() (*vector.Batch, error)
	// Close releases resources.
	Close() error
}

// Values is a leaf operator producing a fixed, materialized batch sequence.
// It backs constant relations and tests.
type Values struct {
	schema  *types.Schema
	batches []*vector.Batch
	pos     int
}

// NewValues creates a Values operator over pre-built batches.
func NewValues(schema *types.Schema, batches ...*vector.Batch) *Values {
	return &Values{schema: schema, batches: batches}
}

// Schema implements Operator.
func (v *Values) Schema() *types.Schema { return v.schema }

// Open implements Operator.
func (v *Values) Open() error { v.pos = 0; return nil }

// Next implements Operator.
func (v *Values) Next() (*vector.Batch, error) {
	for v.pos < len(v.batches) {
		b := v.batches[v.pos]
		v.pos++
		if b.Len() > 0 {
			return b, nil
		}
	}
	return nil, nil
}

// Close implements Operator.
func (v *Values) Close() error { return nil }

// Collect drains an operator into a single materialized batch, running the
// full open/next/close protocol. It is the execution entry point for
// clients that want the whole result.
func Collect(op Operator) (*vector.Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	out := vector.NewBatch(op.Schema(), vector.Size)
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out.AppendBatch(b)
	}
}

// Drain consumes an operator, invoking fn per batch, without materializing.
func Drain(op Operator, fn func(*vector.Batch) error) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	for {
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if fn != nil {
			if err := fn(b); err != nil {
				return err
			}
		}
	}
}

// Limit passes through at most n rows.
type Limit struct {
	Child Operator
	N     int
	seen  int
}

// NewLimit constructs a LIMIT operator.
func NewLimit(child Operator, n int) *Limit { return &Limit{Child: child, N: n} }

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open() error { l.seen = 0; return l.Child.Open() }

// Next implements Operator.
func (l *Limit) Next() (*vector.Batch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	b, err := l.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if l.seen+b.Len() > l.N {
		b.SetLen(l.N - l.seen)
	}
	l.seen += b.Len()
	return b, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }

// UnionAll concatenates the outputs of several children with identical
// schemas.
type UnionAll struct {
	Children []Operator
	cur      int
}

// NewUnionAll constructs a UNION ALL operator.
func NewUnionAll(children ...Operator) *UnionAll { return &UnionAll{Children: children} }

// Schema implements Operator.
func (u *UnionAll) Schema() *types.Schema { return u.Children[0].Schema() }

// Open implements Operator.
func (u *UnionAll) Open() error {
	u.cur = 0
	for _, c := range u.Children {
		if err := c.Open(); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Operator.
func (u *UnionAll) Next() (*vector.Batch, error) {
	for u.cur < len(u.Children) {
		b, err := u.Children[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.cur++
	}
	return nil, nil
}

// Close implements Operator.
func (u *UnionAll) Close() error {
	var firstErr error
	for _, c := range u.Children {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PrunedBlocks sums zone-map pruning across children that report it, so a
// traced scan over all partitions (a UnionAll of per-partition Scans)
// still surfaces its pruned-block count.
func (u *UnionAll) PrunedBlocks() int {
	total := 0
	for _, c := range u.Children {
		if bp, ok := c.(interface{ PrunedBlocks() int }); ok {
			total += bp.PrunedBlocks()
		}
	}
	return total
}

// ScannedBytes sums decoded-block bytes across children that report it,
// mirroring PrunedBlocks for the flight recorder's bytes_scanned column.
func (u *UnionAll) ScannedBytes() int64 {
	var total int64
	for _, c := range u.Children {
		if sb, ok := c.(interface{ ScannedBytes() int64 }); ok {
			total += sb.ScannedBytes()
		}
	}
	return total
}
