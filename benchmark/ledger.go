package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"indbml/internal/trace"
)

// The ledger has two sources, and neither touches program code.
//
// (A) Spans this benchmark records itself, in memory, around its calls into
// the program's public functions. Each has a name, a start, an end, the span
// that caused it and the operation it belongs to.
//
// (B) Counters the program already returns: the span tree of a traced
// statement, snapshotted with Span.Stat. Those carry busy time, not start and
// end, so they are kept as a separate list (progSpan).

// span is one benchmark-recorded interval. Parent is the ID of the causing
// span, or -1 for the root of an operation, of a set-up or of a replay.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// progSpan is one node of a program span tree, flattened.
type progSpan struct {
	ID       int               `json:"id"`
	Name     string            `json:"name"`
	Op       int               `json:"op"`
	Parent   int               `json:"parent"`
	BusyNS   int64             `json:"busy_ns"`
	SelfNS   int64             `json:"self_ns"`
	Rows     int64             `json:"rows"`
	Counters map[string]int64  `json:"counters,omitempty"`
	Labels   map[string]string `json:"labels,omitempty"`
}

// Root span names; every other span has a parent.
const (
	spanOp     = "op"
	spanSetup  = "setup"
	spanReplay = "replay"
)

// recorder collects spans in memory; it is written out once, when the
// traced run ends. A nil *recorder records nothing, which is how the
// untraced run shares the workload code.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	prog  []progSpan
	ops   int
	// counts are the per-run sums the spans cannot carry: statement bytes,
	// result rows, wire bytes, rows loaded.
	counts map[string]int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its ID.
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Op: op, Parent: parent, StartNS: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// newOp opens the root span of one operation.
func (r *recorder) newOp() (op, root int) {
	if r == nil {
		return -1, -1
	}
	r.mu.Lock()
	op = r.ops
	r.ops++
	r.mu.Unlock()
	return op, r.begin(spanOp, op, -1)
}

// adopt flattens a program span tree into the ledger under operation op.
func (r *recorder) adopt(op int, st trace.SpanStat) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flatten(op, -1, st)
}

func (r *recorder) flatten(op, parent int, st trace.SpanStat) {
	id := len(r.prog)
	self := st.WallNS
	for _, c := range st.Children {
		self -= c.WallNS
	}
	// An Exchange's partitions run concurrently, so its children can sum to
	// more busy time than the exchange itself spent waiting for them.
	if self < 0 {
		self = 0
	}
	p := progSpan{ID: id, Name: st.Name, Op: op, Parent: parent, BusyNS: st.WallNS, SelfNS: self, Rows: st.Rows, Labels: st.Labels}
	if len(st.Counters) > 0 {
		p.Counters = make(map[string]int64, len(st.Counters))
		for _, c := range st.Counters {
			p.Counters[c.Name] = c.Value
		}
	}
	r.prog = append(r.prog, p)
	for _, c := range st.Children {
		r.flatten(op, id, c)
	}
}

// spanNS sums the durations of the recorded spans called name.
func (r *recorder) spanNS(name string) (total int64, count int) {
	for _, s := range r.spans {
		if s.Name == name {
			total += s.EndNS - s.StartNS
			count++
		}
	}
	return total, count
}

// write dumps the ledger to path as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		Spans   []span     `json:"spans"`
		Program []progSpan `json:"program"`
	}{r.spans, r.prog})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// layerKind attributes a program span to a layer by the operator its name
// starts with.
type layerKind int

const (
	kindOther layerKind = iota
	kindScan
	kindJoin
	kindAgg
	kindModelJoin
	kindShard    // a RemoteExchange source: its own time is spent waiting on a shard
	kindWait     // Exchange / RemoteExchange: waits for partitions or shards
	kindFinalize // the coordinator's recombination plan
)

func classify(name string) layerKind {
	switch {
	case strings.HasPrefix(name, "Scan "), strings.HasPrefix(name, "VirtualScan "):
		return kindScan
	case strings.HasPrefix(name, "HashJoin"), strings.HasPrefix(name, "CrossJoin"):
		return kindJoin
	case strings.HasPrefix(name, "HashAggregate"), strings.HasPrefix(name, "SegmentedAggregate"):
		return kindAgg
	case strings.HasPrefix(name, "ModelJoin "):
		return kindModelJoin
	case strings.HasPrefix(name, "shard "):
		return kindShard
	case strings.HasPrefix(name, "Exchange"), strings.HasPrefix(name, "RemoteExchange"):
		return kindWait
	case name == "Finalize":
		return kindFinalize
	}
	return kindOther
}

// progTotals is the program span trees of a traced run folded by layer. Times
// are nanoseconds summed over every traced operation.
type progTotals struct {
	scanNS, joinNS, aggNS, otherNS int64
	buildNS, inferNS, marshalNS    int64
	sgemmNS, sgemmFlops            int64
	batchWaitNS                    int64
	finalizeNS                     int64
	scannedBytes, operatorRows     int64
	// Per-operation maxima over the shard sources, summed over operations:
	// the slowest shard sets a distributed statement's time.
	fanoutNS, firstRowNS, skewNS int64
	wireBytesIn                  int64
	// busyNS is every span's self time except the waiting kinds, less the
	// coalesce wait: what the program's own spans account for as CPU work.
	busyNS int64
}

func (r *recorder) foldProgram() progTotals {
	var t progTotals
	type shardAgg struct{ fanout, first, lastMin, lastMax int64 }
	shards := make(map[int]*shardAgg)
	for _, p := range r.prog {
		t.operatorRows += p.Rows
		t.scannedBytes += p.Counters["scanned_bytes"]
		kind := classify(p.Name)
		switch kind {
		case kindScan:
			t.scanNS += p.SelfNS
		case kindJoin:
			t.joinNS += p.SelfNS
		case kindAgg:
			t.aggNS += p.SelfNS
		case kindModelJoin:
			t.buildNS += p.Counters["build_ns"]
			t.inferNS += p.Counters["infer_ns"]
			t.marshalNS += p.Counters["marshal_ns"]
			t.sgemmNS += p.Counters["sgemm_ns"]
			t.sgemmFlops += p.Counters["sgemm_flops"]
			t.batchWaitNS += p.Counters["batch_wait_ns"]
			// What the operator spends outside its own counters (copying
			// the input columns through) stays with the executor.
			rest := p.SelfNS - p.Counters["build_ns"] - p.Counters["infer_ns"]
			if rest > 0 {
				t.otherNS += rest
			}
		case kindShard:
			a := shards[p.Op]
			if a == nil {
				a = &shardAgg{lastMin: math.MaxInt64}
				shards[p.Op] = a
			}
			last := p.Counters["last_row_ns"]
			a.lastMin = min(a.lastMin, last)
			a.lastMax = max(a.lastMax, last)
			a.fanout = max(a.fanout, p.Counters["fanout_connect_ns"])
			a.first = max(a.first, p.Counters["first_row_ns"])
			t.wireBytesIn += p.Counters["wire_bytes_in"]
		case kindFinalize:
			t.finalizeNS += p.BusyNS
			t.otherNS += p.SelfNS
		case kindOther:
			t.otherNS += p.SelfNS
		}
		if kind != kindShard && kind != kindWait {
			t.busyNS += p.SelfNS
		}
	}
	t.busyNS -= t.batchWaitNS
	for _, a := range shards {
		t.fanoutNS += a.fanout
		t.firstRowNS += a.first
		t.skewNS += a.lastMax - a.lastMin
	}
	return t
}
