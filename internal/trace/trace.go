// Package trace provides the per-query observability context threaded
// through the Volcano executor: a tree of Spans mirroring the plan, each
// recording wall time, rows/batches produced, and operator-specific
// counters (model build vs. inference time, Sgemm time, FLOPs, cache
// hits, marshalling cost, ...).
//
// Design constraints, in order:
//
//  1. Race-clean under partition-parallel execution. A span is attached
//     to a *logical* plan node; with an Exchange above it, N partition
//     instances of the same operator record into the same span
//     concurrently. Every hot-path mutation is a single atomic add.
//  2. Allocation-free on the hot path. Named counters are resolved to
//     *atomic.Int64 once at Open; Next only does atomic adds. When
//     tracing is off no spans exist at all and operators run their
//     original code paths untouched.
//  3. Self-describing output. Render produces the EXPLAIN ANALYZE tree;
//     JSON produces the compact form embedded in the slow-query log.
package trace

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one node of a query trace, mirroring one logical plan node.
// All mutating methods are safe for concurrent use; in parallel plans the
// wall-clock numbers are *busy* time summed across partition instances,
// so an operator under an 8-way Exchange can legitimately report more
// busy time than the statement's wall clock.
type Span struct {
	Name     string
	Children []*Span

	wallNS  atomic.Int64 // summed busy time across instances
	rows    atomic.Int64
	batches atomic.Int64

	mu       sync.Mutex
	extras   []*extra          // named counters, creation-ordered
	byName   map[string]*extra // lookup for Counter
	labels   []label           // in set order; in labelBuf while it has room
	adopted  []*Span           // grafted subtrees (remote shard fragments), mu-guarded
	labelBuf [2]label
}

// label is one key=value annotation of a span.
type label struct{ key, value string }

type extra struct {
	name string
	val  atomic.Int64
}

// NewSpan returns a span with the given display name (typically the plan
// node's describe() string).
func NewSpan(name string) *Span { return &Span{Name: name} }

// NewChild creates, appends, and returns a child span. Not safe for
// concurrent use with itself; the tree shape is built single-threaded at
// plan time, only counter mutation is concurrent.
func (s *Span) NewChild(name string) *Span {
	c := NewSpan(name)
	s.Children = append(s.Children, c)
	return c
}

// Adopt grafts a fully-built subtree (typically a remote shard fragment's
// decoded span tree) under s. Unlike NewChild it is safe to call while the
// query is executing: live consumers (Progress sampling, EXPLAIN ANALYZE
// rendering) read adopted subtrees under the same lock. The adopted tree
// must not be mutated after the call.
func (s *Span) Adopt(child *Span) {
	if child == nil {
		return
	}
	s.mu.Lock()
	s.adopted = append(s.adopted, child)
	s.mu.Unlock()
}

// adoptedSnapshot copies the adopted-subtree slice under the lock so tree
// walkers never race with a concurrent Adopt.
func (s *Span) adoptedSnapshot() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.adopted) == 0 {
		return nil
	}
	out := make([]*Span, len(s.adopted))
	copy(out, s.adopted)
	return out
}

// AddWall accumulates busy time. Operators call this from Next/Open/Close
// with a locally measured duration.
func (s *Span) AddWall(d time.Duration) { s.wallNS.Add(int64(d)) }

// AddRows / AddBatches accumulate output cardinality.
func (s *Span) AddRows(n int64)    { s.rows.Add(n) }
func (s *Span) AddBatches(n int64) { s.batches.Add(n) }

// Wall, Rows, Batches read the accumulated totals.
func (s *Span) Wall() time.Duration { return time.Duration(s.wallNS.Load()) }
func (s *Span) Rows() int64         { return s.rows.Load() }
func (s *Span) Batches() int64      { return s.batches.Load() }

// Counter returns the named extra counter, creating it on first use.
// Resolve once at Open and keep the *atomic.Int64; the hot path then pays
// one atomic add per event. Counter names ending in "_ns" render as
// durations; others as plain integers.
func (s *Span) Counter(name string) *atomic.Int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byName == nil {
		s.byName = make(map[string]*extra)
	}
	if e, ok := s.byName[name]; ok {
		return &e.val
	}
	e := &extra{name: name}
	s.byName[name] = e
	s.extras = append(s.extras, e)
	return &e.val
}

// SetLabel attaches a small string annotation (e.g. cache=hit). Later
// writes win; safe for concurrent use.
func (s *Span) SetLabel(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.labels {
		if s.labels[i].key == key {
			s.labels[i].value = value
			return
		}
	}
	if s.labels == nil {
		s.labels = s.labelBuf[:0]
	}
	s.labels = append(s.labels, label{key, value})
}

// Label reads a label previously stored with SetLabel ("" if unset).
func (s *Span) Label(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.labels {
		if l.key == key {
			return l.value
		}
	}
	return ""
}

// annotations renders the bracketed suffix: rows, batches, busy time,
// labels, then extra counters in creation order.
func (s *Span) annotations() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("time=%s", fmtDuration(s.Wall())))
	parts = append(parts, fmt.Sprintf("rows=%d", s.Rows()))
	if b := s.Batches(); b > 0 {
		parts = append(parts, fmt.Sprintf("batches=%d", b))
	}
	s.mu.Lock()
	slices.SortFunc(s.labels, func(a, b label) int { return strings.Compare(a.key, b.key) })
	for _, l := range s.labels {
		parts = append(parts, fmt.Sprintf("%s=%s", l.key, l.value))
	}
	for _, e := range s.extras {
		v := e.val.Load()
		if strings.HasSuffix(e.name, "_ns") {
			parts = append(parts, fmt.Sprintf("%s=%s", strings.TrimSuffix(e.name, "_ns"), fmtDuration(time.Duration(v))))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%d", e.name, v))
		}
	}
	s.mu.Unlock()
	return strings.Join(parts, " ")
}

// fmtDuration renders durations compactly with ~3 significant digits so
// EXPLAIN ANALYZE columns stay narrow (1.23ms, 45.6µs, 7.89s).
func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// QueryTrace is the root observability record for one statement.
type QueryTrace struct {
	SQL   string
	Root  *Span
	start time.Time

	mu    sync.Mutex
	total time.Duration
	err   error
	done  bool
}

// NewQueryTrace starts the statement clock.
func NewQueryTrace(sql string) *QueryTrace {
	return &QueryTrace{SQL: sql, start: time.Now()}
}

// Finish stops the clock (first call wins) and records the statement
// outcome. Safe to call multiple times.
func (q *QueryTrace) Finish(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done {
		return
	}
	q.done = true
	q.total = time.Since(q.start)
	q.err = err
}

// Total returns the statement wall time (0 until Finish).
func (q *QueryTrace) Total() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// Err returns the recorded statement outcome.
func (q *QueryTrace) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Render produces the EXPLAIN ANALYZE text: the plan tree annotated with
// per-operator timings, then a statement summary line.
func (q *QueryTrace) Render() string {
	var sb strings.Builder
	if q.Root != nil {
		renderSpan(&sb, q.Root, 0)
	}
	total := q.Total()
	fmt.Fprintf(&sb, "Total: %s", fmtDuration(total))
	if err := q.Err(); err != nil {
		fmt.Fprintf(&sb, "  (error: %v)", err)
	}
	sb.WriteByte('\n')
	return sb.String()
}

func renderSpan(sb *strings.Builder, s *Span, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	if depth > 0 {
		sb.WriteString("-> ")
	}
	fmt.Fprintf(sb, "%s  [%s]\n", s.Name, s.annotations())
	for _, c := range s.Children {
		renderSpan(sb, c, depth+1)
	}
	for _, c := range s.adoptedSnapshot() {
		renderSpan(sb, c, depth+1)
	}
}

// spanJSON is the compact wire form for the slow-query log.
type spanJSON struct {
	Op       string            `json:"op"`
	WallNS   int64             `json:"wall_ns"`
	Rows     int64             `json:"rows"`
	Batches  int64             `json:"batches,omitempty"`
	Labels   map[string]string `json:"labels,omitempty"`
	Counters map[string]int64  `json:"counters,omitempty"`
	Children []spanJSON        `json:"children,omitempty"`
}

func (s *Span) toJSON() spanJSON {
	j := spanJSON{
		Op:      s.Name,
		WallNS:  s.wallNS.Load(),
		Rows:    s.rows.Load(),
		Batches: s.batches.Load(),
	}
	s.mu.Lock()
	j.Labels = s.labelMap()
	if len(s.extras) > 0 {
		j.Counters = make(map[string]int64, len(s.extras))
		for _, e := range s.extras {
			j.Counters[e.name] = e.val.Load()
		}
	}
	s.mu.Unlock()
	for _, c := range s.Children {
		j.Children = append(j.Children, c.toJSON())
	}
	for _, c := range s.adoptedSnapshot() {
		j.Children = append(j.Children, c.toJSON())
	}
	return j
}

// labelMap copies the labels into a map, nil without labels. The caller
// holds s.mu.
func (s *Span) labelMap() map[string]string {
	if len(s.labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(s.labels))
	for _, l := range s.labels {
		m[l.key] = l.value
	}
	return m
}

// CounterStat is one named counter in a span snapshot, in creation order.
type CounterStat struct {
	Name  string
	Value int64
}

// SpanStat is an immutable snapshot of one span and its subtree, taken with
// Stat. It is the hand-off format for consumers that outlive the query —
// the flight recorder folds it into its per-query operator breakdown —
// without exposing the span's live atomics.
type SpanStat struct {
	Name     string
	WallNS   int64
	Rows     int64
	Batches  int64
	Labels   map[string]string
	Counters []CounterStat
	Children []SpanStat
}

// Stat snapshots the span subtree. Safe to call concurrently with counter
// mutation; the values are whatever the atomics held at read time.
func (s *Span) Stat() SpanStat {
	st := SpanStat{
		Name:    s.Name,
		WallNS:  s.wallNS.Load(),
		Rows:    s.rows.Load(),
		Batches: s.batches.Load(),
	}
	s.mu.Lock()
	st.Labels = s.labelMap()
	if len(s.extras) > 0 {
		st.Counters = make([]CounterStat, 0, len(s.extras))
		for _, e := range s.extras {
			st.Counters = append(st.Counters, CounterStat{Name: e.name, Value: e.val.Load()})
		}
	}
	s.mu.Unlock()
	for _, c := range s.Children {
		st.Children = append(st.Children, c.Stat())
	}
	for _, c := range s.adoptedSnapshot() {
		st.Children = append(st.Children, c.Stat())
	}
	return st
}

// EncodeSpan serializes a span subtree into the same compact JSON form the
// slow-query log embeds. It is the payload of the wire trailer that ships a
// shard fragment's operator tree back to the coordinator.
func EncodeSpan(s *Span) ([]byte, error) {
	if s == nil {
		return nil, nil
	}
	return json.Marshal(s.toJSON())
}

// DecodeSpan rebuilds a span subtree from EncodeSpan output. The result is
// a fresh, fully-owned tree: counters, labels, and totals are restored so
// Render/Stat/toJSON on the grafted tree reproduce the remote annotations.
func DecodeSpan(data []byte) (*Span, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var j spanJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("trace: decoding span: %w", err)
	}
	return spanFromJSON(&j), nil
}

func spanFromJSON(j *spanJSON) *Span {
	s := NewSpan(j.Op)
	s.wallNS.Store(j.WallNS)
	s.rows.Store(j.Rows)
	s.batches.Store(j.Batches)
	for k, v := range j.Labels {
		s.SetLabel(k, v)
	}
	// Counter order is lost through the JSON map; restore alphabetically so
	// re-rendered annotations are deterministic.
	names := make([]string, 0, len(j.Counters))
	for name := range j.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Counter(name).Store(j.Counters[name])
	}
	for i := range j.Children {
		s.Children = append(s.Children, spanFromJSON(&j.Children[i]))
	}
	return s
}

// MarshalJSON emits the compact trace record embedded in the slow-query
// log: {"sql":..., "total_ns":..., "error":..., "plan":{...}}.
func (q *QueryTrace) MarshalJSON() ([]byte, error) {
	rec := struct {
		SQL     string    `json:"sql"`
		TotalNS int64     `json:"total_ns"`
		Error   string    `json:"error,omitempty"`
		Plan    *spanJSON `json:"plan,omitempty"`
	}{
		SQL:     q.SQL,
		TotalNS: int64(q.Total()),
	}
	if err := q.Err(); err != nil {
		rec.Error = err.Error()
	}
	if q.Root != nil {
		j := q.Root.toJSON()
		rec.Plan = &j
	}
	return json.Marshal(rec)
}

// SpanCarrier is implemented by operators that record phase-specific
// counters beyond what the generic Traced wrapper can see (ModelJoin,
// PyUDF). The plan builder hands them their span right after
// construction, before Open.
type SpanCarrier interface {
	SetSpan(*Span)
}
