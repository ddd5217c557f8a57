// Package baselines implements the comparison approaches of the paper's
// evaluation (Sec. 6.1) against which ML-To-SQL and the native ModelJoin are
// measured:
//
//   - TF(Python): data leaves the engine over the simulated ODBC wire
//     (package odbc), is materialized as boxed values in the external
//     "Python" environment, converted to the runtime's input layout and
//     classified — on CPU or the simulated GPU.
//   - TF(C-API): a Raven-like in-engine operator that hands each columnar
//     batch to the ML runtime through its row-major C-API, paying the layout
//     conversion both ways but no data export.
//   - UDF: inference as a Python UDF (package pyudf), tuple-at-a-time or
//     vectorized, paying per-value boxing and per-call overhead.
//
// The "TensorFlow" all three call is the native operator's own forward
// pass, compiled from the nn.Model per call site (modeljoin.Compile) and
// run through a row-major C-API-like Run, so each baseline pays its
// integration cost and the same kernels as MODEL JOIN.
package baselines

import (
	"fmt"

	"indbml/internal/core/modeljoin"
	"indbml/internal/device"
	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
	"indbml/internal/odbc"
	"indbml/internal/pyudf"
)

// batchSize matches the engine's vector size — the paper fixes all
// approaches' batch size to 1024 (Sec. 6.1).
const batchSize = vector.Size

// PythonResult is what the external environment ends up holding after a
// TF(Python) run.
type PythonResult struct {
	IDs         []int64
	Predictions [][]float32
	RowsFetched int
}

// TFPython runs the paper's baseline: SELECT the input columns (plus the ID)
// out of the database over ODBC, materialize the *whole* result set as boxed
// rows in the external environment (the fetchall/DataFrame pattern a Python
// client uses), convert it to the runtime's input layout, and classify in
// batches of 1024. The measured time of a TFPython call covers data movement
// and classification, exactly as in the paper's setup; the full
// materialization is what drives this baseline's memory footprint in
// Table 3.
func TFPython(d *db.Database, table, idCol string, inputCols []string, m *nn.Model, dev device.Device) (*PythonResult, error) {
	query := "SELECT " + idCol
	for _, c := range inputCols {
		query += ", " + c
	}
	query += " FROM " + table

	rows, err := odbc.Query(d, query)
	if err != nil {
		return nil, err
	}

	// Phase 1: fetch everything into client memory as boxed rows.
	var fetched [][]any
	for {
		row := rows.Next()
		if row == nil {
			break
		}
		fetched = append(fetched, row)
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}

	// Phase 2: build the full input array (the numpy conversion) with
	// per-object dispatch.
	nIn := len(inputCols)
	ids := make([]int64, len(fetched))
	input := make([]float32, len(fetched)*nIn)
	for r, row := range fetched {
		id, ok := row[0].(int64)
		if !ok {
			return nil, fmt.Errorf("baselines: id column is %T, want int64", row[0])
		}
		ids[r] = id
		for j, v := range row[1:] {
			f, err := pyudf.ToFloat32(v)
			if err != nil {
				return nil, err
			}
			input[r*nIn+j] = f
		}
	}

	// Phase 3: classify with the runtime, batch size 1024 (Sec. 6.1).
	model, err := modeljoin.Compile(m, dev)
	if err != nil {
		return nil, err
	}
	defer model.Close()
	outDim := model.OutputDim()
	res := &PythonResult{RowsFetched: len(fetched), IDs: ids}
	res.Predictions = make([][]float32, 0, len(fetched))
	out := make([]float32, batchSize*outDim)
	for start := 0; start < len(fetched); start += batchSize {
		end := start + batchSize
		if end > len(fetched) {
			end = len(fetched)
		}
		n := end - start
		if err := model.Run(input[start*nIn:end*nIn], n, out[:n*outDim]); err != nil {
			return nil, err
		}
		for r := 0; r < n; r++ {
			res.Predictions = append(res.Predictions, append([]float32(nil), out[r*outDim:(r+1)*outDim]...))
		}
	}
	return res, nil
}

// CAPIOperator is the Raven-like integration (Sec. 6.1): a query operator
// that calls the ML runtime's C-API per batch. The engine's columnar
// vectors are pivoted into the row-major matrix the runtime expects, and
// the row-major predictions are pivoted back — the conversion cost the
// paper attributes to this class of integration.
type CAPIOperator struct {
	Child     exec.Operator
	InputCols []int

	model    *nn.Model
	dev      device.Device
	compiled *modeljoin.Compiled
	schema   *types.Schema
	staging  []float32
	outBuf   []float32
}

// NewCAPIOperator builds the operator; the model is compiled onto the
// device at Open, once per operator instance (the runtime-load cost is part
// of query execution, like the ModelJoin build phase, but unlike MODEL
// JOIN's build it is not shared between partitions).
func NewCAPIOperator(child exec.Operator, m *nn.Model, dev device.Device, inputCols []int) (*CAPIOperator, error) {
	if err := modeljoin.CheckInputs(m.Name, m.InputDim(), child.Schema(), inputCols); err != nil {
		return nil, err
	}
	cols := append(child.Schema().Columns(), modeljoin.PredictionColumns(m.OutputDim())...)
	return &CAPIOperator{
		Child: child, InputCols: inputCols, model: m, dev: dev,
		schema: types.NewSchema(cols...),
	}, nil
}

// Schema implements exec.Operator.
func (o *CAPIOperator) Schema() *types.Schema { return o.schema }

// Open implements exec.Operator.
func (o *CAPIOperator) Open() error {
	if err := o.Child.Open(); err != nil {
		return err
	}
	compiled, err := modeljoin.Compile(o.model, o.dev)
	if err != nil {
		return err
	}
	o.compiled = compiled
	o.staging = make([]float32, batchSize*o.model.InputDim())
	o.outBuf = make([]float32, batchSize*o.model.OutputDim())
	return nil
}

// Next implements exec.Operator.
func (o *CAPIOperator) Next() (*vector.Batch, error) {
	in, err := o.Child.Next()
	if err != nil || in == nil {
		return nil, err
	}
	n := in.Len()
	inDim, outDim := o.model.InputDim(), o.model.OutputDim()

	// Columnar → row-major conversion.
	staging := o.staging[:n*inDim]
	for j, c := range o.InputCols {
		modeljoin.GatherColumn(in.Vecs[c], staging, j, inDim, n)
	}
	out := o.outBuf[:n*outDim]
	if err := o.compiled.Run(staging, n, out); err != nil {
		return nil, err
	}

	res := vector.NewBatch(o.schema, n)
	for c := 0; c < in.Schema.Len(); c++ {
		res.Vecs[c].CopyFrom(in.Vecs[c], nil)
	}
	// Row-major → columnar conversion of the predictions.
	for j := 0; j < outDim; j++ {
		v := res.Vecs[in.Schema.Len()+j]
		v.SetLen(n)
		dst := v.Float32s()
		for r := 0; r < n; r++ {
			dst[r] = out[r*outDim+j]
		}
	}
	res.SetLen(n)
	return res, nil
}

// Close implements exec.Operator.
func (o *CAPIOperator) Close() error {
	if o.compiled != nil {
		o.compiled.Close()
		o.compiled = nil
	}
	return o.Child.Close()
}

// NewUDFOperator builds the UDF baseline: inference as a Python UDF over
// the input columns. With vectorized set, the UDF is invoked once per
// engine vector (the accelerated variant); otherwise once per tuple.
// Inference inside the UDF always runs on the CPU, as in the paper.
func NewUDFOperator(child exec.Operator, m *nn.Model, inputCols []int, vectorized bool) (*pyudf.Operator, error) {
	if err := modeljoin.CheckInputs(m.Name, m.InputDim(), child.Schema(), inputCols); err != nil {
		return nil, err
	}
	model, err := modeljoin.Compile(m, device.NewCPU())
	if err != nil {
		return nil, err
	}
	inDim, outDim := m.InputDim(), m.OutputDim()
	outCols := modeljoin.PredictionColumns(outDim)

	if vectorized {
		fn := func(args [][]pyudf.Value) ([][]pyudf.Value, error) {
			n := len(args[0])
			input := make([]float32, n*inDim)
			for j, col := range args {
				for r, v := range col {
					f, err := pyudf.ToFloat32(v)
					if err != nil {
						return nil, err
					}
					input[r*inDim+j] = f
				}
			}
			out := make([]float32, n*outDim)
			if err := model.Run(input, n, out); err != nil {
				return nil, err
			}
			res := make([][]pyudf.Value, outDim)
			for j := 0; j < outDim; j++ {
				col := make([]pyudf.Value, n)
				for r := 0; r < n; r++ {
					col[r] = out[r*outDim+j]
				}
				res[j] = col
			}
			return res, nil
		}
		return pyudf.NewVectorized(child, inputCols, outCols, fn)
	}

	input := make([]float32, inDim)
	out := make([]float32, outDim)
	fn := func(args []pyudf.Value) ([]pyudf.Value, error) {
		for j, v := range args {
			f, err := pyudf.ToFloat32(v)
			if err != nil {
				return nil, err
			}
			input[j] = f
		}
		if err := model.Run(input, 1, out); err != nil {
			return nil, err
		}
		res := make([]pyudf.Value, outDim)
		for j, v := range out {
			res[j] = v
		}
		return res, nil
	}
	return pyudf.NewScalar(child, inputCols, outCols, fn)
}

// ParallelScan builds the per-partition scan plans all in-engine baselines
// share: one child operator per partition of the fact table, to be wrapped
// by the approach's operator and merged by an Exchange.
func ParallelScan(tbl *storage.Table, wrap func(exec.Operator) (exec.Operator, error), parallelism int) (exec.Operator, error) {
	snap := tbl.Snapshot()
	children := make([]exec.Operator, snap.Partitions())
	for p := range children {
		scan, err := exec.NewScan(snap, p, nil, nil)
		if err != nil {
			return nil, err
		}
		wrapped, err := wrap(scan)
		if err != nil {
			return nil, err
		}
		children[p] = wrapped
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return exec.NewExchange(children, parallelism)
}
