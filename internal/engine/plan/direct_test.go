package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"indbml/internal/core/mltosql"
	"indbml/internal/core/relmodel"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
	"indbml/internal/trace"
)

// keyStride multiplies both sides of a join key in a strided twin query:
// the keys still match as before, but no build's keys are dense any more, so
// every keyed join of the twin probes the hash table.
const keyStride = "1000003"

// runTraced plans and runs q and returns its rows as twinRows renders them
// and the rendered span tree.
func runTraced(t *testing.T, cat Catalog, q string, disableParallel bool) ([]string, string) {
	t.Helper()
	p := planFor(t, &Planner{Cat: cat, DisableParallel: disableParallel}, q)
	qt := trace.NewQueryTrace(q)
	op, err := p.Build(context.Background(), qt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(op)
	if err != nil {
		t.Fatalf("%v\n%s", err, q)
	}
	return twinRows(out), qt.Render()
}

// twinRows renders a result as sorted rows, every float as its bits but a
// NaN as NaN.
func twinRows(b *vector.Batch) []string {
	rows := make([]string, b.Len())
	for r := range rows {
		parts := make([]string, len(b.Vecs))
		for c, v := range b.Vecs {
			switch {
			case v.NullAt(r):
				parts[c] = "NULL"
			case v.Type() == types.Float32 && v.Float32s()[r] != v.Float32s()[r],
				v.Type() == types.Float64 && math.IsNaN(v.Float64s()[r]):
				parts[c] = "NaN"
			case v.Type() == types.Float32:
				parts[c] = fmt.Sprintf("%#x", math.Float32bits(v.Float32s()[r]))
			case v.Type() == types.Float64:
				parts[c] = fmt.Sprintf("%#x", math.Float64bits(v.Float64s()[r]))
			default:
				parts[c] = v.Datum(r).String()
			}
		}
		rows[r] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return rows
}

// checkTwins runs q and its strided twin and demands equal rows, and
// keys=direct on wantDirect of q's keyed joins and on twinDirect of the
// twin's, keys=hash on the rest.
func checkTwins(t *testing.T, cat Catalog, q, twin string, disableParallel bool, wantDirect, twinDirect int, what string) {
	t.Helper()
	got, spans := runTraced(t, cat, q, disableParallel)
	ref, twinSpans := runTraced(t, cat, twin, disableParallel)
	direct, keyed := strings.Count(spans, "keys=direct"), strings.Count(spans, "keys=")
	if direct != wantDirect || strings.Count(twinSpans, "keys=direct") != twinDirect || strings.Count(twinSpans, "keys=") != keyed {
		t.Fatalf("%s: %d of %d keyed joins direct, want %d, and %d in the strided twin:\n%s\n%s",
			what, direct, keyed, wantDirect, twinDirect, spans, twinSpans)
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: %d rows, the strided twin %d", what, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("%s: row %s, the strided twin's %s", what, got[i], ref[i])
		}
	}
}

var (
	nodeKey  = regexp.MustCompile(`input\.node = (model\.node_in(?: - \d+)?)`)
	layerKey = regexp.MustCompile(`input\.layer = model\.layer_in`)
	idKey    = regexp.MustCompile(`data\.id = (r\d*)\.id`)
)

// stridedMLToSQL is the generated ML-To-SQL query q with every join key
// multiplied by keyStride on both sides.
func stridedMLToSQL(q string) string {
	q = nodeKey.ReplaceAllString(q, "input.node * "+keyStride+" = ($1) * "+keyStride)
	q = layerKey.ReplaceAllString(q, "input.layer * "+keyStride+" = model.layer_in * "+keyStride)
	return idKey.ReplaceAllString(q, "data.id * "+keyStride+" = $1.id * "+keyStride)
}

// TestGeneratedDirectKeysMatchHash holds the direct index to the hash table
// it replaces, with no switch: a join whose keys are multiplied by a large
// odd stride on both sides matches the same rows but probes the hash table,
// unless its build holds a single key, which is dense at any stride.
//
// The ML-To-SQL queries of random dense models (both layouts, layer filter on
// and off, 1–4 partitions, parallel and serial; fact rows with NULL and NaN
// inputs, so some sums are NULL and some NaN) index every keyed join
// directly, and their predictions equal the strided twin's bit for bit; the
// models have two inputs and two units a layer or more, and every partition
// two fact rows or more, so every build of the twin holds two keys or more.
// So do plain HashJoins over one or two INTEGER or BIGINT key columns (NULLs
// on both sides, probe keys outside the build's span) whose build keys fill 1
// to 8 slots per key of their span: across the 4× limit, the join must take
// the direct index exactly when the build's keys fit it.
func TestGeneratedDirectKeysMatchHash(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for iter := 0; iter < 12; iter++ {
		inputs, width, depth := 2+rng.Intn(3), 2+rng.Intn(39), 1+rng.Intn(3)
		layout := []relmodel.Layout{relmodel.LayoutPairs, relmodel.LayoutNodeID}[rng.Intn(2)]
		layerFilter, disableParallel := rng.Intn(2) == 0, rng.Intn(2) == 0
		parts := 1 + rng.Intn(4)
		model := nn.NewDenseModel("m", inputs, width, depth, 1+rng.Intn(2), rng.Int63())
		tbl, meta, err := relmodel.Export(model, relmodel.ExportOptions{Layout: layout, Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, inputs)
		for i := range names {
			names[i] = fmt.Sprintf("f%d", i)
		}
		cat := &testCatalog{tables: map[string]*storage.Table{"fact": edgeFact(t, rng, names, 2*parts+rng.Intn(60), parts), "m": tbl}}
		gen, err := mltosql.New(meta, mltosql.Options{FactTable: "fact", ModelTable: "m", InputColumns: names,
			LayerFilter: layerFilter, NativeFunctions: true})
		if err != nil {
			t.Fatal(err)
		}
		q, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("iter %d: %d inputs, dense %dx%d, %s, layer filter %v, %d partitions, serial %v",
			iter, inputs, width, depth, layout, layerFilter, parts, disableParallel)
		// One groupjoin per dense layer and one id join, per output node.
		checkTwins(t, cat, q, stridedMLToSQL(q), disableParallel, len(meta.Layers)*meta.OutputDim(), 0, what)
	}

	for iter := 0; iter < 40; iter++ {
		keyType := []types.T{types.Int32, types.Int64}[rng.Intn(2)]
		nkeys, parts := 1+rng.Intn(2), 1+rng.Intn(3)
		build, bFill, bKeys := keyTable(rng, "b", keyType, nkeys, parts)
		probe, pFill, pKeys := keyTable(rng, "p", keyType, nkeys, parts)
		on, twin := []string{}, []string{}
		for c := 0; c < nkeys; c++ {
			on = append(on, fmt.Sprintf("p.k%d = b.k%d", c, c))
			twin = append(twin, fmt.Sprintf("p.k%d * %s = b.k%d * %s", c, keyStride, c, keyStride))
		}
		sel := "SELECT p.id, p.k0, b.id, b.x FROM p, b WHERE "
		cat := &testCatalog{tables: map[string]*storage.Table{"p": probe, "b": build}}
		q, qTwin := sel+strings.Join(on, " AND "), sel+strings.Join(twin, " AND ")
		// The build side is b or p, as the planner chose.
		buildsRight := func(q string) bool {
			return strings.Contains(planFor(t, &Planner{Cat: cat}, q).Explain(), "[build right]")
		}
		fill, keys := pFill, pKeys
		if buildsRight(q) {
			fill = bFill
		}
		if buildsRight(qTwin) {
			keys = bKeys
		}
		wantDirect, twinDirect := 0, 0
		if fill <= 4 {
			wantDirect = 1
		}
		if keys == 1 {
			twinDirect = 1
		}
		what := fmt.Sprintf("iter %d: %d %s keys, %d partitions, %.2f slots per build key", iter, nkeys, keyType, parts, fill)
		checkTwins(t, cat, q, qTwin, false, wantDirect, twinDirect, what)
	}
}

// edgeFact is mlFact with about one input in eight NULL and one in
// sixteen NaN.
func edgeFact(t *testing.T, rng *rand.Rand, names []string, n, parts int) *storage.Table {
	t.Helper()
	cols := []types.Column{{Name: "id", Type: types.Int64}}
	for _, name := range names {
		cols = append(cols, types.Column{Name: name, Type: types.Float32})
	}
	tbl := storage.NewTable("fact", types.NewSchema(cols...), storage.Options{Partitions: parts})
	tbl.SetSortedBy(0)
	tbl.SetUniqueKey(0)
	b := vector.NewBatch(tbl.Schema, n)
	for r := 0; r < n; r++ {
		row := []types.Datum{types.Int64Datum(int64(r))}
		for range names {
			switch rng.Intn(16) {
			case 0, 1:
				row = append(row, types.NullDatum(types.Float32))
			case 2:
				row = append(row, types.Float32Datum(float32(math.NaN())))
			default:
				row = append(row, types.Float32Datum(float32(rng.NormFloat64())))
			}
		}
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// keyTable is a table name(id BIGINT, k0 [, k1] keyType, x REAL) over
// parts partitions. Column k0 takes 1–40 distinct values in a span, starting
// at a random and possibly negative value, of 1 to 8 slots per value, its
// ends included; k1, if any, is constant or takes two values. About one row
// in eight has a NULL key column. It returns the table, the span's slots per
// distinct non-NULL key and the number of those keys.
func keyTable(rng *rand.Rand, name string, keyType types.T, nkeys, parts int) (*storage.Table, float64, int) {
	cols := []types.Column{{Name: "id", Type: types.Int64}}
	for c := 0; c < nkeys; c++ {
		cols = append(cols, types.Column{Name: fmt.Sprintf("k%d", c), Type: keyType})
	}
	cols = append(cols, types.Column{Name: "x", Type: types.Float32})
	tbl := storage.NewTable(name, types.NewSchema(cols...), storage.Options{Partitions: parts})

	n := 1 + rng.Intn(40)
	span := max(n, int(math.Round(float64(n)*[]float64{1, 2, 3.5, 3.9, 4, 4.1, 4.5, 8}[rng.Intn(8)])))
	lo := int64(rng.Intn(200) - 100)
	values := []int64{lo, lo + int64(span) - 1}[:min(n, 2)]
	for _, v := range rng.Perm(max(span-2, 0))[:n-len(values)] {
		values = append(values, lo+1+int64(v))
	}
	k1Span := int64(1 + rng.Intn(2))
	rows := n * (1 + rng.Intn(3))
	b := vector.NewBatch(tbl.Schema, rows)
	seen := map[[2]int64]bool{}
	lo0, hi0, lo1, hi1 := int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64)
	for r := 0; r < rows; r++ {
		row := []types.Datum{types.Int64Datum(int64(r))}
		key := [2]int64{values[rng.Intn(n)], lo + rng.Int63n(k1Span)}
		if nkeys == 1 {
			key[1] = 0
		}
		null := false
		for c := 0; c < nkeys; c++ {
			if rng.Intn(8) == 0 {
				row, null = append(row, types.NullDatum(keyType)), true
				continue
			}
			if keyType == types.Int32 {
				row = append(row, types.Int32Datum(int32(key[c])))
			} else {
				row = append(row, types.Int64Datum(key[c]))
			}
		}
		_ = b.AppendRow(append(row, types.Float32Datum(float32(rng.NormFloat64())))...)
		if !null {
			seen[key] = true
			lo0, hi0, lo1, hi1 = min(lo0, key[0]), max(hi0, key[0]), min(lo1, key[1]), max(hi1, key[1])
		}
	}
	if err := tbl.Append(b); err != nil {
		panic(err)
	}
	if len(seen) == 0 {
		return tbl, math.Inf(1), 0
	}
	return tbl, float64((hi0-lo0+1)*(hi1-lo1+1)) / float64(len(seen)), len(seen)
}
