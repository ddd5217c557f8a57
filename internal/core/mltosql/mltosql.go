// Package mltosql implements the paper's ML-To-SQL framework (Sec. 4): given
// a model's relational representation (package relmodel), it generates plain,
// nested SQL that performs the full inference — the ModelJoin — using only
// standard relational operators, so it runs on any SQL-compliant engine
// without engine changes.
//
// The generation composes the four function types of Table 1:
//
//	Input(fact, model)          -> R'(ID, Layer, Node, Output_activated)
//	Layer_forward(R', model)    -> R'(ID, Layer, Node, Output)
//	Activate(R')                -> R'(ID, Layer, Node, Output_activated)
//	Output(R', fact)            -> fact + Prediction
//
// nested exactly as Listing 1, with the dense templates of Listings 2–4.
// LSTM layers unroll the recurrence into one nested block per time step: the
// recurrent weight block is stored once in the model table (Sec. 4.3.3) and
// each step joins the running (h, c) state with it, consuming one input
// column of the series per step. The bias — and for LSTM the kernel weights
// — ride along as GROUP BY columns, realizing the paper's edge-replication
// trick that avoids extra joins.
//
// The optimizations of Sec. 4.4 are individually switchable:
//
//   - LayoutNodeID: unique node ids, offset joins and range predicates
//     instead of (Layer, Node) pairs and layer equality filters;
//   - LayerFilter: predicates restricting each join to the next layer's
//     edges, enabling zone-map block pruning in the engine;
//   - NativeFunctions: emit TANH/SIGMOID/RELU builtins where available,
//     or portable EXP/CASE formulations otherwise.
//
// Pipelined (order-based) aggregation is an engine-side rewrite: the
// generated GROUP BY always leads with the fact ID, and the engine detects
// the ID-clustered stream and plants a segmented aggregate (Sec. 4.4).
// Over a dense layer's join it goes one step further and plans a groupjoin,
// which adds each joined pair's output_activated * w_i straight into its
// group, with the same sums as the join and the aggregate would compute.
package mltosql

import (
	"fmt"
	"strings"

	"indbml/internal/core/relmodel"
)

// Options configure SQL generation.
type Options struct {
	// FactTable is the fact (input) table name.
	FactTable string
	// ModelTable is the model table name.
	ModelTable string
	// IDColumn is the fact table's unique row identifier (Sec. 4.2).
	IDColumn string
	// InputColumns are the fact columns fed to the model, in input order.
	InputColumns []string
	// NativeFunctions emits TANH/SIGMOID/RELU builtins instead of portable
	// EXP/CASE expansions.
	NativeFunctions bool
	// LayerFilter adds the per-join layer predicates of Sec. 4.4 (equality
	// on Layer for LayoutPairs, a range on Node for LayoutNodeID).
	LayerFilter bool
	// Pretty indents the nested query for human inspection.
	Pretty bool
}

// Generator produces inference SQL for one stored model.
type Generator struct {
	meta *relmodel.Meta
	opts Options
}

// New creates a generator. InputColumns must match the model's input width —
// for LSTM models, one column per time step (Sec. 4's self-join convention
// turns a raw series into this shape).
func New(meta *relmodel.Meta, opts Options) (*Generator, error) {
	if opts.FactTable == "" || opts.ModelTable == "" {
		return nil, fmt.Errorf("mltosql: fact and model table names are required")
	}
	if opts.IDColumn == "" {
		opts.IDColumn = "id"
	}
	if want := meta.Inputs(); len(opts.InputColumns) != want {
		return nil, fmt.Errorf("mltosql: model %s expects %d input columns, got %d", meta.Name, want, len(opts.InputColumns))
	}
	return &Generator{meta: meta, opts: opts}, nil
}

// Generate emits the complete ModelJoin query: Output(Activate(...
// Input(fact, model) ...), fact).
func (g *Generator) Generate() (string, error) {
	inner, err := g.inferenceQuery()
	if err != nil {
		return "", err
	}
	q := g.outputFunction(inner)
	if g.opts.Pretty {
		q = indentSQL(q)
	}
	return q, nil
}

// GenerateInferenceOnly emits the query up to (ID, Node, Prediction) —
// without the final late-projection join back to the fact table.
func (g *Generator) GenerateInferenceOnly() (string, error) {
	q, err := g.inferenceQuery()
	if err != nil {
		return "", err
	}
	if g.opts.Pretty {
		q = indentSQL(q)
	}
	return q, nil
}

// inferenceQuery builds the nested Input/Layer_forward/Activate chain.
func (g *Generator) inferenceQuery() (string, error) {
	layers := g.meta.Layers
	var q string
	var layerIdx int
	if layers[1].Kind == "lstm" {
		q = g.lstmInput()
		q = g.lstmSteps(q)
		layerIdx = 2
	} else {
		q = g.denseInput()
		layerIdx = 1
	}
	for ; layerIdx < len(layers); layerIdx++ {
		lm := layers[layerIdx]
		if lm.Kind != "dense" {
			return "", fmt.Errorf("mltosql: unsupported layer kind %q at position %d", lm.Kind, layerIdx)
		}
		q = g.denseForward(q, layerIdx)
		q = g.activate(q, lm.Activation)
	}
	return q, nil
}

// --- input functions (Sec. 4.3.1) ---

// denseInput realizes Listing 3: cross-join the fact table with the model's
// artificial-input edges and select the i-th input column for node i.
func (g *Generator) denseInput() string {
	var cols strings.Builder
	for i, c := range g.opts.InputColumns {
		fmt.Fprintf(&cols, "data.%s AS c%d, ", c, i)
	}
	inner := fmt.Sprintf(
		"SELECT data.%s AS id, %smodel.node AS node FROM %s AS data, %s AS model WHERE %s",
		g.opts.IDColumn, cols.String(), g.opts.FactTable, g.opts.ModelTable, g.inputEdgePredicate())

	var cases strings.Builder
	for i := range g.opts.InputColumns {
		fmt.Fprintf(&cases, "WHEN node = %d THEN c%d ", i, i)
	}
	if g.meta.Layout == relmodel.LayoutPairs {
		return fmt.Sprintf("SELECT id, 0 AS layer, node, CASE %sEND AS output_activated FROM (%s) AS t",
			cases.String(), inner)
	}
	return fmt.Sprintf("SELECT id, node, CASE %sEND AS output_activated FROM (%s) AS t",
		cases.String(), inner)
}

// inputEdgePredicate selects the artificial-input edges (Listing 2/3's
// layer_in = -1 / node_in = -1).
func (g *Generator) inputEdgePredicate() string {
	if g.meta.Layout == relmodel.LayoutPairs {
		return "model.layer_in = -1"
	}
	return "model.node_in = -1"
}

// --- dense layer forward (Sec. 4.3.2, Listing 4) ---

func (g *Generator) denseForward(prev string, layerIdx int) string {
	if g.meta.Layout == relmodel.LayoutPairs {
		filter := ""
		if g.opts.LayerFilter {
			filter = fmt.Sprintf(" AND model.layer = %d", layerIdx)
		}
		inner := fmt.Sprintf(
			"SELECT input.id AS id, model.layer AS layer, model.node AS node, "+
				"SUM(input.output_activated * model.w_i) AS s, model.b_i AS bias "+
				"FROM (%s) AS input, %s AS model "+
				"WHERE input.node = model.node_in AND input.layer = model.layer_in%s "+
				"GROUP BY input.id, model.layer, model.node, model.b_i",
			prev, g.opts.ModelTable, filter)
		return fmt.Sprintf("SELECT id, layer, node, s + bias AS output FROM (%s) AS t", inner)
	}
	prevOff := g.meta.NodeOffset(layerIdx - 1)
	lo, hi := g.meta.NodeRange(layerIdx)
	filter := ""
	if g.opts.LayerFilter {
		filter = fmt.Sprintf(" AND model.node BETWEEN %d AND %d", lo, hi)
	}
	inner := fmt.Sprintf(
		"SELECT input.id AS id, model.node AS gnode, "+
			"SUM(input.output_activated * model.w_i) AS s, model.b_i AS bias "+
			"FROM (%s) AS input, %s AS model "+
			"WHERE input.node = model.node_in - %d%s "+
			"GROUP BY input.id, model.node, model.b_i",
		prev, g.opts.ModelTable, prevOff, filter)
	return fmt.Sprintf("SELECT id, gnode - %d AS node, s + bias AS output FROM (%s) AS t",
		g.meta.NodeOffset(layerIdx), inner)
}

// --- activation functions (Sec. 4.3.5) ---

func (g *Generator) activate(prev, activation string) string {
	expr := g.activationExpr("output", activation)
	if g.meta.Layout == relmodel.LayoutPairs {
		return fmt.Sprintf("SELECT id, layer, node, %s AS output_activated FROM (%s) AS a", expr, prev)
	}
	return fmt.Sprintf("SELECT id, node, %s AS output_activated FROM (%s) AS a", expr, prev)
}

// activationExpr renders an activation over a column, natively or portably.
func (g *Generator) activationExpr(col, activation string) string {
	switch activation {
	case "", "linear":
		return col
	case "relu":
		if g.opts.NativeFunctions {
			return fmt.Sprintf("RELU(%s)", col)
		}
		return fmt.Sprintf("CASE WHEN %s > CAST(0 AS REAL) THEN %s ELSE CAST(0 AS REAL) END", col, col)
	case "sigmoid":
		if g.opts.NativeFunctions {
			return fmt.Sprintf("SIGMOID(%s)", col)
		}
		return fmt.Sprintf("(CAST(1 AS REAL) / (CAST(1 AS REAL) + EXP(-(%s))))", col)
	case "tanh":
		if g.opts.NativeFunctions {
			return fmt.Sprintf("TANH(%s)", col)
		}
		// tanh(x) = 2·sigmoid(2x) − 1, numerically safe for query-range
		// inputs and expressible with EXP alone. Parenthesized so the
		// expansion survives interpolation into larger expressions.
		return fmt.Sprintf("(CAST(2 AS REAL) / (CAST(1 AS REAL) + EXP(CAST(-2 AS REAL) * (%s))) - CAST(1 AS REAL))", col)
	default:
		return col
	}
}

// --- output function (Sec. 4.3.4) ---

// outputFunction joins the inference result back to the fact table on the
// unique ID — the "late projection" that reunites payload columns with their
// predictions.
func (g *Generator) outputFunction(inference string) string {
	outDim := g.meta.OutputDim()
	if outDim == 1 {
		return fmt.Sprintf(
			"SELECT data.*, r.output_activated AS prediction FROM %s AS data, (%s) AS r WHERE data.%s = r.id",
			g.opts.FactTable, inference, g.opts.IDColumn)
	}
	var from strings.Builder
	var sel strings.Builder
	var where strings.Builder
	fmt.Fprintf(&from, "%s AS data", g.opts.FactTable)
	fmt.Fprintf(&sel, "data.*")
	// Both layouts carry layer-local node indices in the intermediate, so
	// output node k filters as node = k (Sec. 4.3.4).
	for k := 0; k < outDim; k++ {
		fmt.Fprintf(&from, ", (SELECT id, output_activated FROM (%s) AS x WHERE node = %d) AS r%d", inference, k, k)
		fmt.Fprintf(&sel, ", r%d.output_activated AS prediction_%d", k, k)
		if where.Len() > 0 {
			where.WriteString(" AND ")
		}
		fmt.Fprintf(&where, "data.%s = r%d.id", g.opts.IDColumn, k)
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s", sel.String(), from.String(), where.String())
}

// --- LSTM (Sec. 4.3.3) ---

// lstmInput builds the initial state S₀: one row per (fact row, LSTM node)
// with zero hidden and cell state, the first series value as the current
// input x, and the remaining series values carried along (Listing 2 passes
// the whole series as a column list).
func (g *Generator) lstmInput() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT data.%s AS id, ", g.opts.IDColumn)
	sb.WriteString("model.node AS node, ")
	sb.WriteString("CAST(0 AS REAL) AS h, CAST(0 AS REAL) AS c, ")
	fmt.Fprintf(&sb, "data.%s AS x", g.opts.InputColumns[0])
	for i := 1; i < len(g.opts.InputColumns); i++ {
		fmt.Fprintf(&sb, ", data.%s AS r%d", g.opts.InputColumns[i], i)
	}
	fmt.Fprintf(&sb, " FROM %s AS data, %s AS model WHERE %s",
		g.opts.FactTable, g.opts.ModelTable, g.inputEdgePredicate())
	return sb.String()
}

// lstmSteps unrolls the recurrence: each step joins the state with the
// recurrent block (stored once), computes the four gates via the grouped
// sums, and shifts the input series by one. After the final step the state
// projects to the standard intermediate shape for the following dense
// layers.
func (g *Generator) lstmSteps(state string) string {
	lm := g.meta.Layers[1]
	steps := lm.TimeSteps
	for t := 1; t <= steps; t++ {
		remaining := len(g.opts.InputColumns) - t // series values left after this step
		state = g.lstmStep(state, t, remaining)
	}
	// Final projection into layer-forward shape; the LSTM output is h and
	// the following dense layer joins from relational layer 1.
	if g.meta.Layout == relmodel.LayoutPairs {
		return fmt.Sprintf("SELECT id, 1 AS layer, node, h AS output_activated FROM (%s) AS fin", state)
	}
	return fmt.Sprintf("SELECT id, node, h AS output_activated FROM (%s) AS fin", state)
}

// lstmStep emits one recurrence step. remaining is how many series values
// are still unconsumed after this step (they are carried through the
// aggregation with MIN, being constant per fact row).
func (g *Generator) lstmStep(state string, t, remaining int) string {
	units := g.meta.Layers[1].Units
	gates := []string{"i", "f", "c", "o"}

	// Join predicate and diagonal test depend on the layout.
	var joinPred, diagPred string
	if g.meta.Layout == relmodel.LayoutPairs {
		joinPred = "s.node = model.node_in AND model.layer = 1"
		if !g.opts.LayerFilter {
			// The layer predicate is required for correctness here (it
			// selects the recurrent block); LayerFilter only controls the
			// optional dense-layer filters.
			joinPred = "s.node = model.node_in AND model.layer_in = 0 AND model.layer = 1"
		}
		diagPred = "model.node_in = model.node"
	} else {
		off := g.meta.NodeOffset(1)
		joinPred = fmt.Sprintf("s.node = model.node_in AND model.node BETWEEN %d AND %d", off, off+units-1)
		diagPred = fmt.Sprintf("model.node_in = model.node - %d", off)
	}

	// Inner aggregation: z_g = x·W_g + Σ_m h(m)·U_g(m,n) + b_g, plus the
	// previous cell state picked off the diagonal edge.
	var agg strings.Builder
	agg.WriteString("SELECT s.id AS id, ")
	if g.meta.Layout == relmodel.LayoutPairs {
		agg.WriteString("model.node AS node, ")
	} else {
		fmt.Fprintf(&agg, "model.node - %d AS node, ", g.meta.NodeOffset(1))
	}
	for _, gate := range gates {
		fmt.Fprintf(&agg, "MIN(s.x) * model.w_%s + SUM(s.h * model.u_%s) + model.b_%s AS z%s, ",
			gate, gate, gate, gate)
	}
	fmt.Fprintf(&agg, "SUM(CASE WHEN %s THEN s.c ELSE CAST(0 AS REAL) END) AS cprev", diagPred)
	for r := 1; r <= remaining; r++ {
		fmt.Fprintf(&agg, ", MIN(s.r%d) AS r%d", t+r-1, t+r-1)
	}
	fmt.Fprintf(&agg, " FROM (%s) AS s, %s AS model WHERE %s", state, g.opts.ModelTable, joinPred)
	agg.WriteString(" GROUP BY s.id, model.node")
	for _, gate := range gates {
		fmt.Fprintf(&agg, ", model.w_%s", gate)
	}
	for _, gate := range gates {
		fmt.Fprintf(&agg, ", model.b_%s", gate)
	}

	// Gate math: c' = σ(z_f)·c + σ(z_i)·tanh(z_c); h' = σ(z_o)·tanh(c').
	sig := func(col string) string { return g.activationExpr(col, "sigmoid") }
	tanh := func(col string) string { return g.activationExpr(col, "tanh") }

	var mid strings.Builder
	fmt.Fprintf(&mid, "SELECT id, node, %s * cprev + %s * %s AS cn, zo AS zo",
		sig("zf"), sig("zi"), tanh("zc"))
	for r := 1; r <= remaining; r++ {
		fmt.Fprintf(&mid, ", r%d", t+r-1)
	}
	fmt.Fprintf(&mid, " FROM (%s) AS z", agg.String())

	var outer strings.Builder
	fmt.Fprintf(&outer, "SELECT id, node, %s * %s AS h, cn AS c", sig("zo"), tanh("cn"))
	if remaining > 0 {
		// Shift the series: the next unconsumed value becomes x.
		fmt.Fprintf(&outer, ", r%d AS x", t)
		for r := 2; r <= remaining; r++ {
			fmt.Fprintf(&outer, ", r%d AS r%d", t+r-1, t+r-1)
		}
	}
	fmt.Fprintf(&outer, " FROM (%s) AS g", mid.String())
	return outer.String()
}

// indentSQL pretty-prints nested queries: subquery-opening parentheses
// increase the indent, their closers decrease it. Best-effort formatting
// for human inspection; the output remains valid SQL.
func indentSQL(q string) string {
	var sb strings.Builder
	var stack []bool // true = subquery paren
	indent := func() {
		sb.WriteByte('\n')
		sb.WriteString(strings.Repeat("  ", len(stack)))
	}
	for i := 0; i < len(q); i++ {
		c := q[i]
		switch c {
		case '(':
			if strings.HasPrefix(q[i+1:], "SELECT") {
				sb.WriteByte(c)
				stack = append(stack, true)
				indent()
				continue
			}
			stack = append(stack, false)
			sb.WriteByte(c)
		case ')':
			wasSub := false
			if len(stack) > 0 {
				wasSub = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			}
			if wasSub {
				indent()
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}
