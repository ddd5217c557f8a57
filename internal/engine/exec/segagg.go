package exec

import (
	"fmt"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// SegmentedAggregate is the engine's realization of the paper's pipelined
// aggregation (Sec. 4.4): when the input stream is *clustered* on one of the
// grouping expressions (the fact table's unique ID flowing through
// order-preserving joins), a group can never span two clusters. The
// operator therefore holds only the groups of the current cluster — layer
// width many, not fact-table-size many — and emits them whenever the
// clustered key changes, resetting its group table in place. Memory is
// O(groups per segment) instead of O(total groups), and execution pipelines.
// The clustered column is constant within a segment, so the group table
// keys on the other grouping columns only.
type SegmentedAggregate struct {
	Child      Operator
	GroupBy    []expr.Expr
	GroupNames []string
	Aggs       []AggSpec
	// PrefixIdx is the index within GroupBy of the clustered expression.
	PrefixIdx int

	schema *types.Schema
	g      *grouper
	out    *vector.Batch

	// in is the input batch being consumed, from row inPos on; it stays
	// valid across our own Next calls because the child is not asked for
	// another until it is used up.
	in    *vector.Batch
	inPos int
	eof   bool

	// The open segment holds the grouper's groups; seg is its prefix value.
	// A closed segment drains into out, drainPos groups so far.
	open     bool
	seg      segKey
	draining bool
	drainPos int

	// PeakGroups records the maximum number of simultaneously held groups,
	// for the memory experiments.
	PeakGroups int
}

// NewSegmentedAggregate constructs a segmented aggregation. prefixIdx names
// the grouping expression the input is clustered by.
func NewSegmentedAggregate(child Operator, groupBy []expr.Expr, groupNames []string, aggs []AggSpec, prefixIdx int) (*SegmentedAggregate, error) {
	if prefixIdx < 0 || prefixIdx >= len(groupBy) {
		return nil, fmt.Errorf("exec: segmented aggregate prefix index %d out of range", prefixIdx)
	}
	schema, err := aggSchema(groupBy, groupNames, aggs)
	if err != nil {
		return nil, err
	}
	return &SegmentedAggregate{
		Child: child, GroupBy: groupBy, GroupNames: groupNames, Aggs: aggs,
		PrefixIdx: prefixIdx, schema: schema,
	}, nil
}

// Schema implements Operator.
func (s *SegmentedAggregate) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *SegmentedAggregate) Open() error {
	s.g = newGrouper(s.GroupBy, s.Aggs, s.PrefixIdx)
	s.out = vector.NewBatch(s.schema, vector.Size)
	s.in, s.inPos, s.eof = nil, 0, false
	s.open, s.draining, s.drainPos = false, false, 0
	s.PeakGroups = 0
	return s.Child.Open()
}

func (s *SegmentedAggregate) closeSegment() {
	s.PeakGroups = max(s.PeakGroups, s.g.groups())
	s.open, s.draining, s.drainPos = false, true, 0
}

// Next implements Operator: it returns a batch once vector.Size finished
// groups are ready (a segment larger than that drains over several calls)
// or the input ends.
func (s *SegmentedAggregate) Next() (*vector.Batch, error) {
	s.out.Reset()
	for {
		if s.draining {
			n := min(s.g.groups()-s.drainPos, vector.Size-s.out.Len())
			s.g.emit(s.out, s.drainPos, s.drainPos+n)
			s.drainPos += n
			if s.drainPos == s.g.groups() {
				s.g.reset()
				s.draining = false
			}
			if s.out.Len() == vector.Size {
				return s.out, nil
			}
		}
		if s.eof {
			if s.out.Len() == 0 {
				return nil, nil
			}
			return s.out, nil
		}
		if s.in == nil || s.inPos == s.in.Len() {
			b, err := s.Child.Next()
			if err != nil {
				return nil, err
			}
			s.in, s.inPos = b, 0
			if b == nil {
				s.eof = true
				if s.open {
					s.closeSegment()
				}
				continue
			}
			if b.Len() == 0 {
				continue
			}
			if err := s.g.load(b); err != nil {
				return nil, err
			}
		}
		prefix := s.g.keys[s.PrefixIdx]
		k := segKeyAt(prefix, s.inPos)
		if s.open && k != s.seg {
			s.closeSegment()
			continue
		}
		if !s.open {
			s.open, s.seg = true, k
		}
		end := runEnd(prefix, s.inPos)
		s.g.add(s.inPos, end)
		s.inPos = end
	}
}

// runEnd returns the end of the run of values equal to v[lo] that starts at
// lo, scanning the typed slice. NULLs form runs of their own. A run must not
// span two segKeys, and may end early: float == keeps -0 with +0 and puts
// each NaN in a run of one, which Next then joins by segKey.
func runEnd(v *vector.Vector, lo int) int {
	nulls := v.Nulls()
	if nulls != nil && nulls[lo] {
		return lo + runLen(nulls[lo:])
	}
	end := v.Len()
	switch v.Type() {
	case types.Bool:
		end = lo + runLen(v.Bools()[lo:])
	case types.Int32:
		end = lo + runLen(v.Int32s()[lo:])
	case types.Int64:
		end = lo + runLen(v.Int64s()[lo:])
	case types.Float32:
		end = lo + runLen(v.Float32s()[lo:])
	case types.Float64:
		end = lo + runLen(v.Float64s()[lo:])
	case types.String:
		end = lo + runLen(v.Strings()[lo:])
	}
	if nulls != nil {
		end = lo + runLen(nulls[lo:end])
	}
	return end
}

func runLen[T comparable](s []T) int {
	for i := 1; i < len(s); i++ {
		if s[i] != s[0] {
			return i
		}
	}
	return len(s)
}

// Close implements Operator.
func (s *SegmentedAggregate) Close() error {
	s.g, s.out, s.in = nil, nil, nil
	return s.Child.Close()
}
