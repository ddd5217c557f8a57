package telemetry

import (
	"time"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/metrics"
)

// Virtual system tables over the history rings and the alert set.

var historySchema = types.NewSchema(
	types.Column{Name: "ts", Type: types.Int64},   // sample time, unix nanoseconds
	types.Column{Name: "res", Type: types.String}, // "fine" | "coarse"
	types.Column{Name: "metric", Type: types.String},
	types.Column{Name: "kind", Type: types.String},  // counter | gauge | histogram
	types.Column{Name: "label", Type: types.String}, // "" scalar, le=… / sum / count for histograms
	types.Column{Name: "value", Type: types.Float64},
	types.Column{Name: "rate", Type: types.Float64}, // per-second delta vs previous sample; NULL on the first
)

// HistoryTable exposes both rings as system.metrics_history: one row per
// (sample, series), with the rate column computed from adjacent-sample
// deltas at scan time.
func HistoryTable(s *Sampler) storage.VirtualTable {
	return storage.NewVirtualTable("system.metrics_history", historySchema, func(b *storage.BatchBuilder) error {
		appendHistory(b, "fine", s.fine.snapshot())
		appendHistory(b, "coarse", s.coarse.snapshot())
		return nil
	})
}

func appendHistory(b *storage.BatchBuilder, res string, samples []*sample) {
	type key struct{ name, label string }
	var prevAt map[key]float64
	var prevTS int64
	for _, sm := range samples {
		ts := sm.ts.UnixNano()
		cur := make(map[key]float64, len(sm.data))
		for _, d := range sm.data {
			k := key{d.Name, d.Label}
			cur[k] = d.Value
			rate := types.NullDatum(types.Float64)
			if prevAt != nil && ts > prevTS {
				if pv, ok := prevAt[k]; ok {
					dt := float64(ts-prevTS) / 1e9
					rate = types.Float64Datum((d.Value - pv) / dt)
				}
			}
			b.Append(
				types.Int64Datum(ts),
				types.StringDatum(res),
				types.StringDatum(d.Name),
				types.StringDatum(d.Kind),
				types.StringDatum(d.Label),
				types.Float64Datum(d.Value),
				rate,
			)
		}
		prevAt, prevTS = cur, ts
	}
}

var latencySchema = types.NewSchema(
	types.Column{Name: "ts", Type: types.Int64},   // interval end, unix nanoseconds
	types.Column{Name: "res", Type: types.String}, // "fine" | "coarse"
	types.Column{Name: "metric", Type: types.String},
	types.Column{Name: "count", Type: types.Int64},  // observations in the interval
	types.Column{Name: "rate", Type: types.Float64}, // observations per second
	types.Column{Name: "p50_ms", Type: types.Float64},
	types.Column{Name: "p99_ms", Type: types.Float64},
	types.Column{Name: "avg_ms", Type: types.Float64},
)

// LatencyTable derives system.latency_history from histogram-bucket deltas
// between adjacent samples: interval p50/p99 via linear bucket
// interpolation (histograms record seconds; columns are milliseconds).
func LatencyTable(s *Sampler) storage.VirtualTable {
	return storage.NewVirtualTable("system.latency_history", latencySchema, func(b *storage.BatchBuilder) error {
		appendLatency(b, "fine", s.fine.snapshot())
		appendLatency(b, "coarse", s.coarse.snapshot())
		return nil
	})
}

func appendLatency(b *storage.BatchBuilder, res string, samples []*sample) {
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		dt := cur.ts.Sub(prev.ts).Seconds()
		if dt <= 0 {
			continue
		}
		for _, name := range histogramNames(cur.data) {
			hp := extractHist(prev.data, name)
			hc := extractHist(cur.data, name)
			deltas, ok := bucketDeltas(hp, hc)
			if !ok {
				continue
			}
			n := hc.count - hp.count
			if n < 0 {
				n = 0
			}
			p50, p99, avg := types.NullDatum(types.Float64), types.NullDatum(types.Float64), types.NullDatum(types.Float64)
			if n > 0 {
				if v, ok := quantileFromDeltas(hc.bounds, deltas, 0.50); ok {
					p50 = types.Float64Datum(v * 1000)
				}
				if v, ok := quantileFromDeltas(hc.bounds, deltas, 0.99); ok {
					p99 = types.Float64Datum(v * 1000)
				}
				avg = types.Float64Datum((hc.sum - hp.sum) / n * 1000)
			}
			b.Append(
				types.Int64Datum(cur.ts.UnixNano()),
				types.StringDatum(res),
				types.StringDatum(name),
				types.Int64Datum(int64(n)),
				types.Float64Datum(n/dt),
				p50, p99, avg,
			)
		}
	}
}

// histogramNames lists the distinct histogram metrics in one sample,
// preserving registration order.
func histogramNames(data []metrics.Sample) []string {
	var names []string
	seen := make(map[string]bool)
	for _, d := range data {
		if d.Kind == "histogram" && !seen[d.Name] {
			seen[d.Name] = true
			names = append(names, d.Name)
		}
	}
	return names
}

// unixOrZero renders a possibly-unset time as unix nanoseconds (0 = never).
func unixOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

var alertsSchema = types.NewSchema(
	types.Column{Name: "name", Type: types.String},
	types.Column{Name: "expr", Type: types.String},
	types.Column{Name: "state", Type: types.String}, // inactive | pending | firing
	types.Column{Name: "value", Type: types.Float64},
	types.Column{Name: "threshold", Type: types.Float64},
	types.Column{Name: "for_ns", Type: types.Int64},
	types.Column{Name: "since_ns", Type: types.Int64}, // entered current state
	types.Column{Name: "fired_count", Type: types.Int64},
	types.Column{Name: "last_fired_ns", Type: types.Int64},
	types.Column{Name: "last_resolved_ns", Type: types.Int64},
)

// AlertsTable exposes the alert rules and their live state as
// system.alerts.
func AlertsTable(s *Sampler) storage.VirtualTable {
	return storage.NewVirtualTable("system.alerts", alertsSchema, s.fillAlerts)
}

func (s *Sampler) fillAlerts(b *storage.BatchBuilder) error {
	for _, st := range s.alerts.snapshotStates() {
		val := types.NullDatum(types.Float64)
		if st.hasValue {
			val = types.Float64Datum(st.lastValue)
		}
		b.Append(
			types.StringDatum(st.rule.Name),
			types.StringDatum(st.rule.Expr()),
			types.StringDatum(st.state),
			val,
			types.Float64Datum(st.rule.Threshold),
			types.Int64Datum(int64(st.rule.For)),
			types.Int64Datum(unixOrZero(st.since)),
			types.Int64Datum(st.firedCount),
			types.Int64Datum(unixOrZero(st.lastFired)),
			types.Int64Datum(unixOrZero(st.lastResolved)),
		)
	}
	return nil
}
