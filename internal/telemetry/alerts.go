package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indbml/internal/engine/sql"
)

// Rule is one immutable alert specification: fire when <signal> <op>
// <threshold> has held continuously for at least For.
type Rule struct {
	Name      string
	Fn        string // "", "rate", "p50", "p99"
	Metric    string
	Op        string // ">", "<", ">=", "<="
	Threshold float64
	For       time.Duration
}

// Expr renders the rule body the way CREATE ALERT spelled it.
func (r Rule) Expr() string {
	sig := r.Metric
	if r.Fn != "" {
		sig = r.Fn + "(" + r.Metric + ")"
	}
	s := fmt.Sprintf("%s %s %s", sig, r.Op, strconv.FormatFloat(r.Threshold, 'g', -1, 64))
	if r.For > 0 {
		s += " FOR " + r.For.String()
	}
	return s
}

// Alert states.
const (
	StateInactive = "inactive"
	StatePending  = "pending" // condition true, FOR duration not yet held
	StateFiring   = "firing"
)

// alertState is one rule plus its evaluation state. Guarded by AlertSet.mu.
type alertState struct {
	rule         Rule
	state        string
	since        time.Time // entered the current state
	lastValue    float64
	hasValue     bool // false until the signal has data
	firedCount   int64
	lastFired    time.Time
	lastResolved time.Time
}

// AlertSet holds the declared rules and runs the pending→firing→resolved
// state machine each sampler tick. Rule DDL (CREATE/DROP ALERT) arrives
// from the session goroutines; evaluation from the sampler goroutine.
type AlertSet struct {
	mu    sync.Mutex
	rules map[string]*alertState

	firing atomic.Int64 // mirror for the vectordb_alerts_firing gauge

	logMu sync.Mutex
	logW  io.Writer // set by Sampler.Start; guarded by mu
}

// setLog directs transition lines to w (nil discards them).
func (a *AlertSet) setLog(w io.Writer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.logW = w
}

// CreateAlert installs a parsed CREATE ALERT rule. Duplicate names are an
// error — DROP ALERT first to replace a rule.
func (a *AlertSet) CreateAlert(stmt *sql.CreateAlertStmt) error {
	switch stmt.Fn {
	case "", "rate", "p50", "p99":
	default:
		return fmt.Errorf("telemetry: unknown alert function %q", stmt.Fn)
	}
	switch stmt.Op {
	case ">", "<", ">=", "<=":
	default:
		return fmt.Errorf("telemetry: unknown alert operator %q", stmt.Op)
	}
	if stmt.Name == "" || stmt.Metric == "" {
		return fmt.Errorf("telemetry: alert needs a name and a metric")
	}
	r := Rule{Name: stmt.Name, Fn: stmt.Fn, Metric: stmt.Metric,
		Op: stmt.Op, Threshold: stmt.Threshold, For: stmt.For}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.rules[r.Name]; dup {
		return fmt.Errorf("telemetry: alert %q already exists (DROP ALERT %s first)", r.Name, r.Name)
	}
	a.rules[r.Name] = &alertState{rule: r, state: StateInactive}
	return nil
}

// DropAlert removes a rule by name.
func (a *AlertSet) DropAlert(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.rules[name]
	if !ok {
		return fmt.Errorf("telemetry: no alert named %q", name)
	}
	if st.state == StateFiring {
		a.firing.Add(-1)
	}
	delete(a.rules, name)
	return nil
}

// FiringCount reports how many rules are currently firing.
func (a *AlertSet) FiringCount() int64 { return a.firing.Load() }

// evaluate runs every rule against the freshest adjacent sample pair.
func (a *AlertSet) evaluate(now time.Time, prev, cur *sample) {
	if cur == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, st := range a.rules {
		v, ok := evalSignal(st.rule, prev, cur)
		st.lastValue, st.hasValue = v, ok
		cond := ok && compare(v, st.rule.Op, st.rule.Threshold)
		switch st.state {
		case StateInactive:
			if cond {
				st.state, st.since = StatePending, now
			}
		case StatePending:
			if !cond {
				st.state, st.since = StateInactive, now
			}
		case StateFiring:
			if !cond {
				st.state, st.since = StateInactive, now
				st.lastResolved = now
				a.firing.Add(-1)
				a.logTransition(now, st, "resolved")
			}
		}
		// A pending rule promotes the moment the condition has held FOR
		// long enough — including in the same tick it turned true when
		// FOR is zero.
		if st.state == StatePending && now.Sub(st.since) >= st.rule.For {
			st.state, st.since = StateFiring, now
			st.firedCount++
			st.lastFired = now
			a.firing.Add(1)
			a.logTransition(now, st, "firing")
		}
	}
}

// evalSignal computes the rule's signal from the adjacent sample pair.
// Returns ok=false when the metric has no data yet (treated as condition
// false, the Prometheus convention).
func evalSignal(r Rule, prev, cur *sample) (float64, bool) {
	switch r.Fn {
	case "":
		return scalarValue(cur.data, r.Metric)
	case "rate":
		if prev == nil {
			return 0, false
		}
		dt := cur.ts.Sub(prev.ts).Seconds()
		if dt <= 0 {
			return 0, false
		}
		c, okC := scalarValue(cur.data, r.Metric)
		p, okP := scalarValue(prev.data, r.Metric)
		if !okC || !okP {
			return 0, false
		}
		return (c - p) / dt, true
	case "p50", "p99":
		if prev == nil {
			return 0, false
		}
		q := 0.50
		if r.Fn == "p99" {
			q = 0.99
		}
		hc := extractHist(cur.data, r.Metric)
		hp := extractHist(prev.data, r.Metric)
		deltas, ok := bucketDeltas(hp, hc)
		if !ok {
			return 0, false
		}
		return quantileFromDeltas(hc.bounds, deltas, q)
	}
	return 0, false
}

func compare(v float64, op string, threshold float64) bool {
	switch op {
	case ">":
		return v > threshold
	case "<":
		return v < threshold
	case ">=":
		return v >= threshold
	case "<=":
		return v <= threshold
	}
	return false
}

// alertEvent is one JSON transition line, in the slow-query-log style.
type alertEvent struct {
	TS        string  `json:"ts"`
	Event     string  `json:"event"` // always "alert"
	Alert     string  `json:"alert"`
	State     string  `json:"state"` // "firing" | "resolved"
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Expr      string  `json:"expr"`
	Fired     int64   `json:"fired_count"`
}

// logTransition emits one JSON line for a firing/resolved edge. Called with
// AlertSet.mu held; the dedicated log mutex keeps writers serialized should
// that ever change. Marshal errors are swallowed — logging must never take
// down a tick.
func (a *AlertSet) logTransition(now time.Time, st *alertState, edge string) {
	if a.logW == nil {
		return
	}
	v := st.lastValue
	if !st.hasValue {
		v = 0 // NaN is not representable in JSON
	}
	e := alertEvent{
		TS: now.UTC().Format(time.RFC3339Nano), Event: "alert",
		Alert: st.rule.Name, State: edge, Value: v,
		Threshold: st.rule.Threshold, Expr: st.rule.Expr(), Fired: st.firedCount,
	}
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	a.logMu.Lock()
	defer a.logMu.Unlock()
	a.logW.Write(append(b, '\n'))
}

// snapshotStates copies the rule states for the system.alerts table,
// sorted by name for stable output.
func (a *AlertSet) snapshotStates() []alertState {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]alertState, 0, len(a.rules))
	for _, st := range a.rules {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rule.Name < out[j].rule.Name })
	return out
}

func (a *AlertSet) statusLine() string {
	states := a.snapshotStates()
	pending, firing := 0, 0
	var names []string
	for _, st := range states {
		switch st.state {
		case StatePending:
			pending++
		case StateFiring:
			firing++
			names = append(names, st.rule.Name)
		}
	}
	s := fmt.Sprintf("rules=%d pending=%d firing=%d", len(states), pending, firing)
	if len(names) > 0 {
		s += " ["
		for i, n := range names {
			if i > 0 {
				s += " "
			}
			s += n
		}
		s += "]"
	}
	return s
}
