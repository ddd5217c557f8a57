package flight

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"indbml/internal/engine/sql"
	"indbml/internal/trace"
)

// LiveQuery is one in-flight statement in the recorder's live registry:
// registered at admission (before the statement holds a query slot),
// adopted by the engine's flight record when execution begins, and removed
// when the statement finishes. It carries the statement's cancel function,
// which is how KILL reaches a victim — running mid-scan, parked in the
// admission queue, or waiting for an inference pass alike, since
// all three paths watch the same context.
//
// Progress is sampled lock-free: the registry hands out the statement's
// root span, whose counters are the same atomics the partition-parallel
// operators mutate, so reading progress never blocks execution.
type LiveQuery struct {
	id      uint64
	sql     string
	fp      uint64
	norm    string
	session string
	origin  uint64 // coordinator query ID for distributed shard fragments
	start   time.Time
	cancel  context.CancelFunc

	state  atomic.Int32 // 0 = queued, 1 = running
	killed atomic.Bool
	root   atomic.Pointer[trace.Span]
}

// Live-query states.
const (
	stateQueued int32 = iota
	stateRunning
)

// ID returns the statement's query ID — the same ID the flight recorder
// publishes to system.queries, so a row observed in system.active_queries
// can be confirmed post-mortem in system.queries after the statement ends.
func (q *LiveQuery) ID() uint64 { return q.id }

// SQL returns the (length-bounded) statement text.
func (q *LiveQuery) SQL() string { return q.sql }

// Fingerprint returns the statement-shape fingerprint.
func (q *LiveQuery) Fingerprint() uint64 { return q.fp }

// Session labels the submitting session (remote address, or "embedded").
func (q *LiveQuery) Session() string { return q.session }

// Origin returns the coordinator query ID this statement is a shard
// fragment of (0 for ordinary statements).
func (q *LiveQuery) Origin() uint64 { return q.origin }

// Start returns the registration time (admission, not execution start).
func (q *LiveQuery) Start() time.Time { return q.start }

// State renders the queue-vs-run state; a killed statement that has not
// yet unwound reports "killed".
func (q *LiveQuery) State() string {
	if q.killed.Load() {
		return "killed"
	}
	if q.state.Load() == stateRunning {
		return "running"
	}
	return "queued"
}

// Kill cancels the statement's context. Idempotent; the victim observes
// context.Canceled at its next batch boundary (Scan/Exchange), in the
// admission-queue select, or in the inference scheduler's wait.
func (q *LiveQuery) Kill() {
	q.killed.Store(true)
	if q.cancel != nil {
		q.cancel()
	}
}

// Progress samples the statement's live counters: rows and bytes produced
// by its storage scans so far, and the operator phase currently dominating
// busy time. All zero/empty while the statement is still queued (no
// operator tree exists yet).
func (q *LiveQuery) Progress() (rowsScanned, bytesScanned int64, phase string) {
	root := q.root.Load()
	if root == nil {
		return 0, 0, ""
	}
	st := root.Stat()
	var maxSelf int64 = -1
	var walk func(s trace.SpanStat)
	walk = func(s trace.SpanStat) {
		if strings.HasPrefix(s.Name, "Scan ") {
			rowsScanned += s.Rows
		}
		for _, c := range s.Counters {
			if c.Name == "scanned_bytes" {
				bytesScanned += c.Value
			}
		}
		self := s.WallNS
		for _, c := range s.Children {
			self -= c.WallNS
			walk(c)
		}
		if self > maxSelf {
			maxSelf = self
			phase = s.Name
		}
	}
	walk(st)
	return rowsScanned, bytesScanned, phase
}

// ---- registry (on the Recorder) ----

// Register enters a statement into the live registry, allocating its
// query ID: the server registers before admission, an embedded statement
// as it starts. p is the statement's one read (sql.ParseNormalized), whose
// fingerprint and normalized text the entry keeps. session labels the
// origin ("embedded" or the remote address); origin is the coordinator's
// query ID stamped on a distributed shard fragment's statement frame (0
// otherwise), which KILL ORIGIN matches and system.queries exposes as
// origin_qid. cancel is the statement's context cancel function (what KILL
// invokes). The caller pairs Register with Unregister (idempotent — the
// flight record's Finish also unregisters).
func (r *Recorder) Register(p sql.Parsed, session string, origin uint64, cancel context.CancelFunc) *LiveQuery {
	q := &LiveQuery{
		id:      r.ids.Add(1),
		sql:     truncate(p.Text),
		fp:      p.Fingerprint,
		norm:    p.Norm,
		session: session,
		origin:  origin,
		start:   time.Now(),
		cancel:  cancel,
	}
	r.liveMu.Lock()
	r.live[q.id] = q
	r.liveMu.Unlock()
	return q
}

// Unregister removes a statement from the live registry. Idempotent.
func (r *Recorder) Unregister(q *LiveQuery) {
	r.liveMu.Lock()
	delete(r.live, q.id)
	r.liveMu.Unlock()
}

// Live snapshots the registry, ordered by query ID.
func (r *Recorder) Live() []*LiveQuery {
	r.liveMu.Lock()
	out := make([]*LiveQuery, 0, len(r.live))
	for _, q := range r.live {
		out = append(out, q)
	}
	r.liveMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Kill cancels the identified live statement. It reports an error when the
// ID names no currently-registered statement (finished or never existed).
func (r *Recorder) Kill(id uint64) error {
	r.liveMu.Lock()
	q := r.live[id]
	r.liveMu.Unlock()
	if q == nil {
		return fmt.Errorf("flight: no active query %d", id)
	}
	q.Kill()
	return nil
}

// KillOrigin cancels every live statement whose origin tag matches,
// returning how many were killed. Zero matches is not an error: the
// coordinator's cancel path races benignly against fragments finishing on
// their own.
func (r *Recorder) KillOrigin(origin uint64) int {
	if origin == 0 {
		return 0
	}
	r.liveMu.Lock()
	var victims []*LiveQuery
	for _, q := range r.live {
		if q.origin == origin {
			victims = append(victims, q)
		}
	}
	r.liveMu.Unlock()
	for _, q := range victims {
		q.Kill()
	}
	return len(victims)
}
