// Package metrics is a dependency-free process metrics registry with
// Prometheus-style text exposition: monotonically increasing counters,
// point-in-time gauges, and fixed-bound histograms.
//
// Every engine (db.Open) owns one registry; each component registers its
// collectors on it when constructed, so system.metrics, the telemetry
// history, HTTP (vectordbd -metrics-addr) and the METRICS verb read one
// source. Registries are plain values, not process globals, so tests can
// open as many isolated engines as they like without name collisions.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named collectors and renders them in text exposition
// format. All methods are safe for concurrent use.
type Registry struct {
	mu          sync.Mutex
	byID        map[string]collector
	ord         []collector  // registration order for stable output
	gaugePanics atomic.Int64 // recovered gauge-func panics (see GaugePanics)
}

type collector interface {
	name() string
	help() string
	write(w io.Writer)
	samples(dst []Sample) []Sample
}

// Sample is one exposition data point in structured form, the feed for the
// system.metrics virtual table. Label is "" for scalar collectors; for
// histograms it is the bucket bound ("le=0.005", "le=+Inf") or the series
// suffix ("sum", "count"). ExemplarQueryID links a histogram bucket to the
// flight-recorder ID of the most recent query observed into it (0 = none),
// so a latency spike is one join away from the offending rows in
// system.queries.
type Sample struct {
	Name            string
	Kind            string // "counter", "gauge", "histogram"
	Label           string
	Value           float64
	ExemplarQueryID uint64
}

// Samples renders every collector as structured samples, in registration
// order. This is the scrape path used by the system.metrics virtual table;
// the text page (WriteText) stays byte-identical with or without exemplars
// so existing Prometheus scrapers are unaffected.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	ord := make([]collector, len(r.ord))
	copy(ord, r.ord)
	r.mu.Unlock()
	var out []Sample
	for _, c := range ord {
		out = c.samples(out)
	}
	return out
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]collector)}
}

func (r *Registry) register(c collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[c.name()]; dup {
		panic(fmt.Sprintf("metrics: duplicate collector %q", c.name()))
	}
	r.byID[c.name()] = c
	r.ord = append(r.ord, c)
}

// NewCounter registers and returns a monotonically increasing counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{nm: name, hp: help}
	r.register(c)
	return c
}

// NewGauge registers and returns a settable gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{nm: name, hp: help}
	r.register(g)
	return g
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time —
// the natural fit for "current queue depth" style readings that already
// live somewhere else. A panicking fn is recovered at read time and
// reported as NaN (and counted — see GaugePanics) rather than killing the
// scraper or the telemetry sampler tick.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&gaugeFunc{nm: name, hp: help, fn: fn, panics: &r.gaugePanics})
}

// GaugePanics reports how many gauge-func reads have panicked and been
// recovered since the registry was created.
func (r *Registry) GaugePanics() int64 { return r.gaugePanics.Load() }

// NewInfo registers a constant info-style gauge: value 1 with a fixed
// label set, the Prometheus convention for build/version metadata
// (name{k="v",...} 1).
func (r *Registry) NewInfo(name, help string, labels []Label) {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	r.register(&infoGauge{nm: name, hp: help, labels: ls})
}

// Label is one key=value pair on an info gauge.
type Label struct {
	Key, Value string
}

// NewHistogram registers and returns a histogram with the given ascending
// upper bounds (an implicit +Inf bucket is always added).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, help, bounds)
	r.register(h)
	return h
}

// WriteText renders every collector in registration order.
func (r *Registry) WriteText(w io.Writer) {
	r.WriteTextFiltered(w, "")
}

// WriteTextFiltered renders only the collectors whose name starts with
// prefix ("" renders everything) — the exposition page is long enough that
// shell inspection (\metrics <prefix>, METRICS <prefix>) wants a filter.
func (r *Registry) WriteTextFiltered(w io.Writer, prefix string) {
	r.mu.Lock()
	ord := make([]collector, len(r.ord))
	copy(ord, r.ord)
	r.mu.Unlock()
	for _, c := range ord {
		if prefix != "" && !strings.HasPrefix(c.name(), prefix) {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n", c.name(), c.help())
		c.write(w)
	}
}

// Text renders the full page as a string.
func (r *Registry) Text() string {
	var sb strings.Builder
	r.WriteText(&sb)
	return sb.String()
}

// TextFiltered renders the collectors matching prefix as a string.
func (r *Registry) TextFiltered(prefix string) string {
	var sb strings.Builder
	r.WriteTextFiltered(&sb, prefix)
	return sb.String()
}

// Handler returns an http.Handler serving the text page (for the
// vectordbd -metrics-addr listener).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// ---- counter ----

// Counter is a monotonically increasing int64.
type Counter struct {
	nm, hp string
	v      atomic.Int64
}

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Add(n int64)  { c.v.Add(n) }
func (c *Counter) Value() int64 { return c.v.Load() }
func (c *Counter) name() string { return c.nm }
func (c *Counter) help() string { return c.hp }
func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.nm, c.nm, c.v.Load())
}
func (c *Counter) samples(dst []Sample) []Sample {
	return append(dst, Sample{Name: c.nm, Kind: "counter", Value: float64(c.v.Load())})
}

// ---- gauge ----

// Gauge is a settable point-in-time value.
type Gauge struct {
	nm, hp string
	v      atomic.Int64
}

func (g *Gauge) Set(n int64)       { g.v.Store(n) }
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) } // returns the new value
func (g *Gauge) Value() int64      { return g.v.Load() }
func (g *Gauge) name() string      { return g.nm }
func (g *Gauge) help() string      { return g.hp }
func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.nm, g.nm, g.v.Load())
}
func (g *Gauge) samples(dst []Sample) []Sample {
	return append(dst, Sample{Name: g.nm, Kind: "gauge", Value: float64(g.v.Load())})
}

type gaugeFunc struct {
	nm, hp string
	fn     func() float64
	panics *atomic.Int64
}

// value reads the gauge function, turning a panic into NaN so one broken
// callback cannot take down a scrape or a sampler tick.
func (g *gaugeFunc) value() (v float64) {
	defer func() {
		if rec := recover(); rec != nil {
			if g.panics != nil {
				g.panics.Add(1)
			}
			v = math.NaN()
		}
	}()
	return g.fn()
}

func (g *gaugeFunc) name() string { return g.nm }
func (g *gaugeFunc) help() string { return g.hp }
func (g *gaugeFunc) write(w io.Writer) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", g.nm, g.nm, fmtFloat(g.value()))
}
func (g *gaugeFunc) samples(dst []Sample) []Sample {
	return append(dst, Sample{Name: g.nm, Kind: "gauge", Value: g.value()})
}

// ---- info gauge ----

// infoGauge is a constant value-1 gauge carrying a fixed label set
// (vectordb_build_info{go_version="go1.22",...} 1).
type infoGauge struct {
	nm, hp string
	labels []Label
}

func (g *infoGauge) name() string { return g.nm }
func (g *infoGauge) help() string { return g.hp }

// labelText renders the {k="v",...} block (also reused as the structured
// Sample label, without braces).
func (g *infoGauge) labelText() string {
	var sb strings.Builder
	for i, l := range g.labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=\"%s\"", l.Key, EscapeLabel(l.Value))
	}
	return sb.String()
}

func (g *infoGauge) write(w io.Writer) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s{%s} 1\n", g.nm, g.nm, g.labelText())
}

func (g *infoGauge) samples(dst []Sample) []Sample {
	return append(dst, Sample{Name: g.nm, Kind: "gauge", Label: g.labelText(), Value: 1})
}

// ---- histogram ----

// Histogram counts observations into fixed upper-bound buckets
// (Prometheus ≤ semantics: an observation lands in the first bucket whose
// bound is >= the value). Internally the buckets are disjoint atomics so
// Observe is a single add; the cumulative form required by the exposition
// format is computed at render time.
type Histogram struct {
	nm, hp    string
	bounds    []float64       // ascending upper bounds, excluding +Inf
	buckets   []atomic.Int64  // len(bounds)+1; last is the +Inf overflow
	exemplars []atomic.Uint64 // per-bucket flight-recorder query ID (0 = none)
	count     atomic.Int64
	sumBits   atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not strictly ascending", name))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		nm: name, hp: help, bounds: b,
		buckets:   make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveExemplar records one value and, when queryID is non-zero, marks
// it as the bucket's exemplar: the flight-recorder ID of the most recent
// query that landed there. Last write wins — an exemplar is a pointer to a
// *recent* representative, not an extremum.
func (h *Histogram) ObserveExemplar(v float64, queryID uint64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	if queryID != 0 {
		h.exemplars[i].Store(queryID)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds — the exposition-format
// convention for latency histograms.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveDurationExemplar is ObserveDuration with an exemplar query ID.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, queryID uint64) {
	h.ObserveExemplar(d.Seconds(), queryID)
}

// Count and Sum read the totals.
func (h *Histogram) Count() int64 { return h.count.Load() }
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns per-bucket non-cumulative counts (len(bounds)+1, the
// final entry being the +Inf overflow). Used by the STATUS text renderer.
type HistogramSnapshot struct {
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64
}

func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     h.Sum(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

func (h *Histogram) name() string { return h.nm }
func (h *Histogram) help() string { return h.hp }
func (h *Histogram) write(w io.Writer) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", h.nm)
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.nm, EscapeLabel(fmtFloat(b)), cum)
	}
	// The +Inf bucket is cumulative over everything, so it must equal
	// _count exactly — including observations beyond the last finite bound.
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.nm, fmtFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", h.nm, h.count.Load())
}

func (h *Histogram) samples(dst []Sample) []Sample {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		dst = append(dst, Sample{
			Name: h.nm, Kind: "histogram",
			Label:           "le=" + fmtFloat(b),
			Value:           float64(cum),
			ExemplarQueryID: h.exemplars[i].Load(),
		})
	}
	cum += h.buckets[len(h.bounds)].Load()
	dst = append(dst, Sample{
		Name: h.nm, Kind: "histogram", Label: "le=+Inf",
		Value:           float64(cum),
		ExemplarQueryID: h.exemplars[len(h.bounds)].Load(),
	})
	dst = append(dst, Sample{Name: h.nm, Kind: "histogram", Label: "sum", Value: h.Sum()})
	dst = append(dst, Sample{Name: h.nm, Kind: "histogram", Label: "count", Value: float64(h.count.Load())})
	return dst
}

// fmtFloat renders floats the way the exposition format expects: no
// exponent for common magnitudes, no trailing zeros.
func fmtFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// EscapeLabel escapes a label value per the text exposition format:
// backslash, double-quote, and newline get backslash escapes; everything
// else passes through as raw UTF-8. (strconv.Quote is NOT correct here —
// it escapes non-ASCII and control bytes in Go syntax that exposition
// parsers do not understand.)
func EscapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// DefaultLatencyBounds are the upper bounds (seconds) shared by the
// statement-latency and queue-wait histograms: sub-ms to 10s, roughly
// log-spaced, matching the old STATUS 5-bucket rendering at the coarse
// end.
var DefaultLatencyBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 10}
