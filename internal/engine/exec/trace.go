package exec

import (
	"sync/atomic"
	"time"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/trace"
)

// Traced decorates an operator with span accounting: busy time across
// Open/Next/Close, and rows/batches produced. plan.Build wraps every
// operator of every plan in one.
//
// Several Traced instances may share one span: in a parallel plan each
// partition instance of a logical node records into the same span, which
// is why every span mutation is a single atomic add.
type Traced struct {
	Child Operator
	Span  *trace.Span

	// Live scanned-bytes publishing: the child's ScannedBytes() is a
	// cumulative per-instance total, while the span counter is shared
	// across partition instances, so each instance feeds only its delta
	// since the previous sample. Resolved once at Open.
	bytesSrc  interface{ ScannedBytes() int64 }
	bytesCtr  *atomic.Int64
	published int64
}

// NewTraced wraps child so its activity is recorded into span.
func NewTraced(child Operator, span *trace.Span) *Traced {
	return &Traced{Child: child, Span: span}
}

// Schema implements Operator.
func (t *Traced) Schema() *types.Schema { return t.Child.Schema() }

// Open implements Operator.
func (t *Traced) Open() error {
	start := time.Now()
	err := t.Child.Open()
	t.Span.AddWall(time.Since(start))
	if sb, ok := t.Child.(interface{ ScannedBytes() int64 }); ok {
		t.bytesSrc = sb
		t.bytesCtr = t.Span.Counter("scanned_bytes")
	}
	return err
}

// publishBytes feeds this instance's scanned-bytes growth into the shared
// span counter, keeping system.active_queries current while the scan runs.
func (t *Traced) publishBytes() {
	if t.bytesSrc == nil {
		return
	}
	if cur := t.bytesSrc.ScannedBytes(); cur != t.published {
		t.bytesCtr.Add(cur - t.published)
		t.published = cur
	}
}

// Next implements Operator.
func (t *Traced) Next() (*vector.Batch, error) {
	start := time.Now()
	b, err := t.Child.Next()
	t.Span.AddWall(time.Since(start))
	if b != nil {
		t.Span.AddRows(int64(b.Len()))
		t.Span.AddBatches(1)
	}
	t.publishBytes()
	return b, err
}

// Close implements Operator.
func (t *Traced) Close() error {
	start := time.Now()
	err := t.Child.Close()
	t.Span.AddWall(time.Since(start))
	if bp, ok := t.Child.(interface{ PrunedBlocks() int }); ok {
		t.Span.Counter("pruned_blocks").Add(int64(bp.PrunedBlocks()))
	}
	t.publishBytes()
	return err
}
