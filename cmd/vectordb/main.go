// Command vectordb is an interactive SQL shell over the engine — handy for
// exploring the relational model representation and the MODEL JOIN syntax.
//
// By default it runs an embedded engine in-process. With -connect it dials
// a vectordbd daemon instead and speaks the framed wire protocol, so the
// same shell drives both the library and the served engine.
//
// Besides SQL (CREATE TABLE / INSERT / SELECT / EXPLAIN / DROP), it offers
// meta commands:
//
//	\load-model <path.json> [partitions]   register a model from JSON (embedded mode)
//	\tables                                list tables and models (embedded mode)
//	\demo                                  load a small iris demo setup (embedded mode)
//	\status                                server stats snapshot (-connect mode)
//	\batcher                               inference batching scheduler report
//	\metrics [prefix]                      the engine's metrics page (embedded or server), optionally filtered
//	\alerts                                alert rules and live state from system.alerts
//	\queries                               recent statements from system.queries
//	\active                                in-flight statements from system.active_queries
//	\shards                                fleet health from system.shards (-connect mode)
//	\kill <query_id>                       cancel an in-flight statement
//	\trace on|off                          run every SELECT as EXPLAIN ANALYZE
//	\q                                     quit
//
// Example session:
//
//	> \demo
//	> SELECT class, COUNT(*) AS n, AVG(prediction) AS score
//	  FROM iris MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width)
//	  GROUP BY class ORDER BY class;
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/vector"
	"indbml/internal/metrics"
	"indbml/internal/nn"
	"indbml/internal/server/client"
	"indbml/internal/workload"
)

// session abstracts over the embedded engine and a remote daemon, so the
// REPL loop is shared.
type session interface {
	runSQL(text string)
	meta(line string) bool // false → quit
	close()
}

func main() {
	connect := flag.String("connect", "", "dial a vectordbd daemon at host:port instead of running an embedded engine")
	flag.Parse()

	var s session
	if *connect != "" {
		c, err := client.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vectordb: connect:", err)
			os.Exit(1)
		}
		fmt.Printf("vectordb — connected to %s (\\q quits, \\status shows server stats)\n", *connect)
		s = &remoteSession{c: c}
	} else {
		fmt.Println("vectordb — in-database ML playground (\\q quits, \\demo loads sample data)")
		s = newLocalSession(db.Open(db.Options{DefaultPartitions: 4, Parallelism: 4}))
	}
	defer s.close()
	repl(s)
}

// repl reads statements (terminated by ';') and meta commands (lines
// starting with '\', honored even mid-statement) until EOF or \q. The
// prompt is derived from the statement buffer, so it always reflects
// whether a continuation is pending.
func repl(s session) {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)

	var stmt strings.Builder
	for {
		if stmt.Len() == 0 {
			fmt.Print("> ")
		} else {
			fmt.Print("… ")
		}
		if !in.Scan() {
			if err := in.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "vectordb: reading input:", err)
			}
			fmt.Println()
			if stmt.Len() > 0 {
				// Ctrl-D mid-statement: tell the user what was dropped
				// instead of exiting silently.
				fmt.Fprintf(os.Stderr, "vectordb: discarding unfinished statement: %s\n",
					strings.TrimSpace(stmt.String()))
			}
			return
		}
		line := strings.TrimSpace(in.Text())
		if strings.HasPrefix(line, "\\") {
			if !s.meta(line) {
				return
			}
			continue
		}
		if line == "" {
			continue
		}
		// Lines keep their breaks, so a "--" comment line ends where it did.
		stmt.WriteString(line)
		stmt.WriteByte('\n')
		if !strings.HasSuffix(line, ";") {
			continue
		}
		text := strings.TrimSuffix(strings.TrimSpace(stmt.String()), ";")
		stmt.Reset()
		s.runSQL(text)
	}
}

// ---- embedded engine session ----

type localSession struct {
	d       *db.Database
	traceOn bool
	latency *metrics.Histogram
}

// newLocalSession adds the shell's statement histogram to the engine's
// registry and keeps the engine's telemetry sampler ticking while the
// shell runs.
func newLocalSession(d *db.Database) *localSession {
	d.Telemetry().Start(nil)
	return &localSession{d: d, latency: d.Metrics().NewHistogram("vectordb_statement_seconds",
		"Statement wall time in the embedded shell.", metrics.DefaultLatencyBounds)}
}

// queriesSQL is what \queries runs: the most recent flight-recorder
// entries, newest first.
const queriesSQL = "SELECT query_id, kind, approach, latency_ns, rows_out, cache, sql " +
	"FROM system.queries ORDER BY query_id DESC LIMIT 20"

// activeSQL is what \active runs: every in-flight statement with its live
// progress counters (the listing SELECT itself shows up too, running).
const activeSQL = "SELECT query_id, session, state, elapsed_ns, rows_scanned, phase, sql " +
	"FROM system.active_queries ORDER BY query_id"

// shardsSQL is what \shards runs against a coordinator: the fleet health
// table (liveness probe, pool state, cumulative fragment errors).
const shardsSQL = "SELECT shard_id, addr, reachable, idle_conns, fragments, fragment_errors, last_error " +
	"FROM system.shards ORDER BY shard_id"

// alertsSQL is what \alerts runs: every declared rule with its live state
// (fleet-wide with a shard column when connected to a coordinator).
const alertsSQL = "SELECT name, state, value, threshold, fired_count, expr " +
	"FROM system.alerts ORDER BY name"

// metricsPrefixArg extracts the optional name-prefix filter from
// "\metrics [prefix]" ("" = full page).
func metricsPrefixArg(fields []string) string {
	if len(fields) > 1 {
		return fields[1]
	}
	return ""
}

// parseKillArg extracts the query ID from "\kill <id>", reporting usage
// errors itself; ok is false when nothing should be killed.
func parseKillArg(fields []string) (uint64, bool) {
	if len(fields) != 2 {
		fmt.Println("usage: \\kill <query_id>")
		return 0, false
	}
	id, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil || id == 0 {
		fmt.Println("usage: \\kill <query_id>  (IDs are listed by \\active)")
		return 0, false
	}
	return id, true
}

func (s *localSession) close() { s.d.Telemetry().Stop() }

// runSQL reads the statement once, with the parser the engine uses, and
// hands the parse to the engine's statement entry; in trace mode a SELECT
// prints its annotated plan after its rows.
func (s *localSession) runSQL(text string) {
	start := time.Now()
	defer func() { s.latency.ObserveDuration(time.Since(start)) }()
	res, err := s.d.Run(context.Background(), sql.ParseNormalized(text, false), nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	switch {
	case res.Op != nil:
		out, err := exec.Collect(res.Op) // closing the tree finishes the trace
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printResult(out)
		if s.traceOn {
			fmt.Print(res.Trace.Render())
		}
	case res.Text != "":
		fmt.Print(res.Text)
	default:
		fmt.Println("ok")
	}
}

// meta handles backslash commands; it returns false to quit.
func (s *localSession) meta(line string) bool {
	d := s.d
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		return false
	case "\\tables":
		fmt.Println(catalogSummary(d))
	case "\\demo":
		if err := workload.LoadDemo(d); err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Println("demo loaded: tables iris, sinus, sinus_windowed; model iris_model (3 outputs)")
		fmt.Println(`try: SELECT * FROM iris MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width) LIMIT 5;`)
	case "\\load-model":
		if len(fields) < 2 {
			fmt.Println("usage: \\load-model <path.json> [partitions]")
			return true
		}
		parts := 4
		if len(fields) >= 3 {
			if n, err := strconv.Atoi(fields[2]); err == nil {
				parts = n
			}
		}
		m, err := nn.LoadFile(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		if _, err := d.RegisterModel(m, relmodel.ExportOptions{Partitions: parts}); err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Printf("registered model %q (%d parameters)\n", m.Name, m.ParamCount())
	case "\\cache":
		st := d.ModelCacheStats()
		fmt.Printf("model cache: hits=%d misses=%d evictions=%d entries=%d\n",
			st.Hits, st.Misses, st.Evictions, st.Entries)
	case "\\metrics":
		fmt.Print(d.Metrics().TextFiltered(metricsPrefixArg(fields)))
	case "\\alerts":
		res, err := s.d.Query(alertsSQL)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		printResult(res)
	case "\\batcher":
		fmt.Print(d.InferSched().StatsText())
	case "\\queries":
		res, err := s.d.Query(queriesSQL)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		printResult(res)
	case "\\active":
		res, err := s.d.Query(activeSQL)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		printResult(res)
	case "\\kill":
		id, ok := parseKillArg(fields)
		if !ok {
			return true
		}
		if err := s.d.Kill(id); err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Printf("killed query %d\n", id)
	case "\\trace":
		s.traceOn = parseTraceArg(fields, s.traceOn)
	default:
		fmt.Println("unknown meta command; available: \\q \\tables \\demo \\load-model \\cache \\batcher \\metrics \\alerts \\queries \\active \\kill \\trace")
	}
	return true
}

// parseTraceArg handles "\trace on|off", reporting the resulting state; a
// bare "\trace" just shows it.
func parseTraceArg(fields []string, cur bool) bool {
	if len(fields) >= 2 {
		switch strings.ToLower(fields[1]) {
		case "on":
			cur = true
		case "off":
			cur = false
		default:
			fmt.Println("usage: \\trace on|off")
			return cur
		}
	}
	if cur {
		fmt.Println("trace is on: SELECTs run as EXPLAIN ANALYZE")
	} else {
		fmt.Println("trace is off")
	}
	return cur
}

func printResult(b *vector.Batch) {
	const maxRows = 50
	widths := make([]int, b.Schema.Len())
	for i := range widths {
		widths[i] = len(b.Schema.Col(i).Name)
	}
	rows := b.Len()
	shown := rows
	if shown > maxRows {
		shown = maxRows
	}
	cells := make([][]string, shown)
	for r := 0; r < shown; r++ {
		cells[r] = make([]string, b.Schema.Len())
		for c := range cells[r] {
			cells[r][c] = b.Vecs[c].Datum(r).String()
			if len(cells[r][c]) > widths[c] {
				widths[c] = len(cells[r][c])
			}
		}
	}
	for i := 0; i < b.Schema.Len(); i++ {
		fmt.Printf("%-*s  ", widths[i], b.Schema.Col(i).Name)
	}
	fmt.Println()
	for r := 0; r < shown; r++ {
		for c := range cells[r] {
			fmt.Printf("%-*s  ", widths[c], cells[r][c])
		}
		fmt.Println()
	}
	if rows > shown {
		fmt.Printf("… (%d more rows)\n", rows-shown)
	}
	fmt.Printf("(%d rows)\n", rows)
}

func catalogSummary(d *db.Database) string {
	// The facade intentionally has no catalog-iteration API for queries;
	// the shell keeps its own notes via \demo and \load-model. Listing what
	// standard workloads create is good enough for a playground.
	var sb strings.Builder
	for _, name := range workload.DemoTables {
		if t, err := d.Table(name); err == nil {
			fmt.Fprintf(&sb, "%-16s %8d rows  %s\n", t.Name, t.RowCount(), t.Schema)
		}
	}
	if sb.Len() == 0 {
		return "(no demo tables loaded; try \\demo)"
	}
	return sb.String()
}

// ---- remote daemon session ----

type remoteSession struct {
	c       *client.Client
	traceOn bool
}

func (s *remoteSession) close() { s.c.Close() }

// runSQL sends the protocol verbs (STATUS, METRICS [prefix], BATCHER) as
// they are and classifies SQL with the parser the server uses: EXPLAIN
// [ANALYZE] answers with text, a SELECT with rows (or, in trace mode, with
// its EXPLAIN ANALYZE), anything else with "ok" — or, for a statement that
// does not parse, with the server's error.
func (s *remoteSession) runSQL(text string) {
	upper := strings.ToUpper(strings.TrimSpace(text))
	if upper == "STATUS" || upper == "METRICS" || strings.HasPrefix(upper, "METRICS ") || upper == "BATCHER" {
		s.command(text)
		return
	}
	stmt, _ := sql.Parse(text)
	switch stmt.(type) {
	case *sql.ExplainStmt:
		s.command(text)
	case *sql.SelectStmt:
		if s.traceOn {
			// The wire protocol returns EXPLAIN ANALYZE as one text
			// payload: the annotated plan, executed server-side.
			s.command("EXPLAIN ANALYZE " + text)
			return
		}
		rows, err := s.c.Query(text)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printRows(rows)
	default:
		if err := s.c.Exec(text); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("ok")
	}
}

// command prints the text reply of a statement that answers with one.
func (s *remoteSession) command(text string) {
	out, err := s.c.Command(text)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(out)
	if !strings.HasSuffix(out, "\n") {
		fmt.Println()
	}
}

func (s *remoteSession) meta(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		return false
	case "\\status":
		out, err := s.c.Status()
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Println(out)
	case "\\metrics":
		out, err := s.c.MetricsFiltered(metricsPrefixArg(fields))
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Print(out)
	case "\\alerts":
		rows, err := s.c.Query(alertsSQL)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		printRows(rows)
	case "\\batcher":
		out, err := s.c.Batcher()
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Print(out)
	case "\\queries":
		rows, err := s.c.Query(queriesSQL)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		printRows(rows)
	case "\\active":
		rows, err := s.c.Query(activeSQL)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		printRows(rows)
	case "\\shards":
		rows, err := s.c.Query(shardsSQL)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		printRows(rows)
	case "\\kill":
		id, ok := parseKillArg(fields)
		if !ok {
			return true
		}
		if err := s.c.Kill(id); err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Printf("killed query %d\n", id)
	case "\\trace":
		s.traceOn = parseTraceArg(fields, s.traceOn)
	default:
		fmt.Println("unknown meta command; available in -connect mode: \\q \\status \\batcher \\metrics \\alerts \\queries \\active \\shards \\kill \\trace")
	}
	return true
}

// printRows renders a streamed remote result: the first 50 rows as a
// table, then a count of the rest (still fully consumed, so the
// connection stays framed).
func printRows(rows *client.Rows) {
	const maxRows = 50
	cols := rows.Columns()
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c.Name)
	}
	var cells [][]string
	total := 0
	for row := rows.Next(); row != nil; row = rows.Next() {
		total++
		if total > maxRows {
			continue
		}
		rc := make([]string, len(cols))
		for i, v := range row {
			if v == nil {
				rc[i] = "NULL"
			} else {
				rc[i] = fmt.Sprint(v)
			}
			if len(rc[i]) > widths[i] {
				widths[i] = len(rc[i])
			}
		}
		cells = append(cells, rc)
	}
	if err := rows.Err(); err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, c := range cols {
		fmt.Printf("%-*s  ", widths[i], c.Name)
	}
	fmt.Println()
	for _, rc := range cells {
		for i := range rc {
			fmt.Printf("%-*s  ", widths[i], rc[i])
		}
		fmt.Println()
	}
	if total > len(cells) {
		fmt.Printf("… (%d more rows)\n", total-len(cells))
	}
	fmt.Printf("(%d rows)\n", total)
}
