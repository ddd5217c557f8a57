// Package bench is the experiment harness that regenerates the paper's
// evaluation (Sec. 6): Figure 8 (dense-network inference runtime), Figure 9
// (LSTM inference runtime), Table 3 (peak memory) and Table 2 (qualitative
// comparison), across the eight approaches the paper compares.
//
// GPU-backed approaches execute on the simulated device: results are exact,
// and the reported time replaces the host time spent emulating device work
// with the device model's time (see package device). Such measurements are
// flagged Simulated. All CPU measurements are plain wall time.
package bench

import (
	"fmt"
	"strings"
	"time"

	"indbml/internal/baselines"
	"indbml/internal/core/mltosql"
	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
	"indbml/internal/workload"
)

// Approach identifies one of the compared inference integrations, named as
// in the paper's figure legends.
type Approach string

// The eight approaches of Figs. 8/9.
const (
	ModelJoinCPU Approach = "ModelJoin_CPU"
	ModelJoinGPU Approach = "ModelJoin_GPU"
	TFCAPICPU    Approach = "TF_CAPI_CPU"
	TFCAPIGPU    Approach = "TF_CAPI_GPU"
	TFPythonCPU  Approach = "TF_CPU"
	TFPythonGPU  Approach = "TF_GPU"
	UDF          Approach = "UDF"
	MLToSQL      Approach = "ML-To-SQL"
)

// AllApproaches lists the paper's legend order.
var AllApproaches = []Approach{
	ModelJoinCPU, ModelJoinGPU, TFCAPICPU, TFCAPIGPU, TFPythonCPU, TFPythonGPU, UDF, MLToSQL,
}

// Measurement is one experiment cell.
type Measurement struct {
	Approach   Approach
	Model      string
	FactTuples int
	// Wall is raw host wall time.
	Wall time.Duration
	// Reported is the time the experiment reports: Wall, except for
	// simulated-GPU approaches where the host emulation time is replaced
	// by the modeled device time.
	Reported time.Duration
	// Simulated marks measurements whose Reported time uses the GPU model.
	Simulated bool
	// PeakMemBytes is the sampled process peak-heap delta (Table 3 proxy).
	PeakMemBytes int64
	// ModeledTime is the simulated device's modeled execution time (0 for
	// CPU approaches); Reported never falls below it.
	ModeledTime time.Duration
	// DevicePeakBytes is the simulated device's peak memory.
	DevicePeakBytes int64
	// Rows is the number of result rows drained (sanity check).
	Rows int
	// Skipped marks configurations the harness refused to run (with why).
	Skipped string
}

// Runner executes experiment cells. Tables are cached per size so approach
// comparisons share identical inputs, as in the paper.
type Runner struct {
	// Partitions and Parallelism default to the paper's 12/12.
	Partitions  int
	Parallelism int
	// MeterMemory enables the heap sampler (adds a little overhead).
	MeterMemory bool
	// MLToSQLCellLimit skips ML-To-SQL cells whose intermediate-result cell
	// count (tuples × Σ layer widths) exceeds the limit; 0 = no limit. The
	// paper's plots likewise show ML-To-SQL leaving the chart for large
	// dense models.
	MLToSQLCellLimit int64

	denseTables map[int]*denseSetup
	lstmTables  map[int]*lstmSetup
}

type denseSetup struct {
	tbl  *storage.Table
	data [][]float32
}

type lstmSetup struct {
	tbl  *storage.Table
	data [][]float32
}

// NewRunner returns a runner with the paper's defaults.
func NewRunner() *Runner {
	return &Runner{
		Partitions:  12,
		Parallelism: 12,
		MeterMemory: true,
		denseTables: make(map[int]*denseSetup),
		lstmTables:  make(map[int]*lstmSetup),
	}
}

func (r *Runner) dense(tuples int) *denseSetup {
	s, ok := r.denseTables[tuples]
	if !ok {
		tbl, data := workload.IrisTable("iris_fact", tuples, r.Partitions)
		s = &denseSetup{tbl: tbl, data: data}
		r.denseTables[tuples] = s
	}
	return s
}

func (r *Runner) lstm(tuples int) *lstmSetup {
	s, ok := r.lstmTables[tuples]
	if !ok {
		series := workload.SinusSeries(tuples+workload.LSTMTimeSteps-1, 0.1)
		tbl, data := workload.WindowedSeriesTable("sinus_fact", series, workload.LSTMTimeSteps, r.Partitions)
		s = &lstmSetup{tbl: tbl, data: data}
		r.lstmTables[tuples] = s
	}
	return s
}

// RunDense measures one Figure-8 cell.
func (r *Runner) RunDense(a Approach, width, depth, tuples int) (Measurement, error) {
	setup := r.dense(tuples)
	model := workload.DenseModel(width, depth)
	inputCols := workload.IrisFeatureNames
	return r.run(a, model, setup.tbl, inputCols, tuples)
}

// RunLSTM measures one Figure-9 cell.
func (r *Runner) RunLSTM(a Approach, width, tuples int) (Measurement, error) {
	setup := r.lstm(tuples)
	model := workload.LSTMModel(width)
	inputCols := workload.WindowColumnNames(workload.LSTMTimeSteps)
	m, err := r.run(a, model, setup.tbl, inputCols, setup.tbl.RowCount())
	m.FactTuples = tuples
	return m, err
}

// modelCells estimates ML-To-SQL join volume: each layer-forward join
// produces one row per (tuple, edge) pair, so tuples × parameter count is
// the work the generated query's aggregations must chew through.
func modelCells(m *nn.Model, tuples int) int64 {
	return int64(m.ParamCount()) * int64(tuples)
}

// run executes one (approach, model, fact table) cell.
func (r *Runner) run(a Approach, model *nn.Model, fact *storage.Table, inputCols []string, tuples int) (Measurement, error) {
	m := Measurement{Approach: a, Model: model.Name, FactTuples: tuples}

	if a == MLToSQL && r.MLToSQLCellLimit > 0 && modelCells(model, tuples) > r.MLToSQLCellLimit {
		m.Skipped = "intermediate volume above -mltosql-limit"
		return m, nil
	}

	// Per-cell database: registration (data + model export) happens before
	// the clock starts; the query — including the ModelJoin build phase —
	// is what is measured, as in the paper.
	d := db.Open(db.Options{DefaultPartitions: r.Partitions, Parallelism: r.Parallelism})
	d.RegisterTable(fact)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: r.Partitions}); err != nil {
		return m, err
	}

	exe, gpu, err := r.prepare(a, d, model, fact, inputCols)
	if err != nil {
		return m, err
	}

	var meter *MemMeter
	if r.MeterMemory {
		meter = StartMemMeter(500 * time.Microsecond)
	}
	if gpu != nil {
		gpu.ResetStats()
	}
	start := time.Now()
	rows, err := exe()
	m.Wall = time.Since(start)
	if meter != nil {
		m.PeakMemBytes = meter.Stop()
	}
	if err != nil {
		return m, err
	}
	m.Rows = rows
	m.Reported = m.Wall
	if gpu != nil {
		st := gpu.Stats()
		m.Simulated = true
		// HostEmulationTime is wall-clock busy time (overlapping partition
		// goroutines do not add), so the difference is the host-only share
		// of the run and never goes negative.
		m.Reported = m.Wall - st.HostEmulationTime + st.ModeledTime
		m.ModeledTime = st.ModeledTime
		m.DevicePeakBytes = st.PeakBytesAllocated
	}
	if m.Rows != tuples {
		return m, fmt.Errorf("bench: %s produced %d rows, want %d", a, m.Rows, tuples)
	}
	return m, nil
}

// prepare builds the approach's executable closure. The closure runs the
// whole inference and returns the number of result rows.
func (r *Runner) prepare(a Approach, d *db.Database, model *nn.Model, fact *storage.Table, inputCols []string) (func() (int, error), *device.GPU, error) {
	countRows := func(op exec.Operator) (int, error) {
		rows := 0
		err := exec.Drain(op, func(b *vector.Batch) error {
			rows += b.Len()
			return nil
		})
		return rows, err
	}

	switch a {
	case ModelJoinCPU, ModelJoinGPU:
		dev := "cpu"
		var gpu *device.GPU
		if a == ModelJoinGPU {
			dev = "gpu"
			gpu = d.GPU()
		}
		query := "SELECT id, prediction FROM " + fact.Name + " MODEL JOIN " + model.Name +
			" PREDICT (" + strings.Join(inputCols, ", ") + ") USING DEVICE '" + dev + "'"
		return func() (int, error) {
			op, err := d.QueryOp(query)
			if err != nil {
				return 0, err
			}
			return countRows(op)
		}, gpu, nil

	case TFCAPICPU, TFCAPIGPU:
		var dev device.Device = d.CPU()
		var gpu *device.GPU
		if a == TFCAPIGPU {
			gpu = d.GPU()
			dev = gpu
		}
		cols := make([]int, len(inputCols))
		for i, c := range inputCols {
			idx, ok := fact.Schema.Lookup(c)
			if !ok {
				return nil, nil, fmt.Errorf("bench: fact table lacks column %q", c)
			}
			cols[i] = idx
		}
		return func() (int, error) {
			op, err := baselines.ParallelScan(fact, func(child exec.Operator) (exec.Operator, error) {
				return baselines.NewCAPIOperator(child, model, dev, cols)
			}, r.Parallelism)
			if err != nil {
				return 0, err
			}
			return countRows(op)
		}, gpu, nil

	case TFPythonCPU, TFPythonGPU:
		var dev device.Device = d.CPU()
		var gpu *device.GPU
		if a == TFPythonGPU {
			gpu = d.GPU()
			dev = gpu
		}
		return func() (int, error) {
			res, err := baselines.TFPython(d, fact.Name, "id", inputCols, model, dev)
			if err != nil {
				return 0, err
			}
			return len(res.Predictions), nil
		}, gpu, nil

	case UDF:
		cols := make([]int, len(inputCols))
		for i, c := range inputCols {
			idx, ok := fact.Schema.Lookup(c)
			if !ok {
				return nil, nil, fmt.Errorf("bench: fact table lacks column %q", c)
			}
			cols[i] = idx
		}
		return func() (int, error) {
			op, err := baselines.ParallelScan(fact, func(child exec.Operator) (exec.Operator, error) {
				return baselines.NewUDFOperator(child, model, cols, true)
			}, r.Parallelism)
			if err != nil {
				return 0, err
			}
			return countRows(op)
		}, nil, nil

	case MLToSQL:
		meta, err := d.ModelMeta(model.Name)
		if err != nil {
			return nil, nil, err
		}
		gen, err := mltosql.New(meta, mltosql.Options{
			FactTable: fact.Name, ModelTable: model.Name, IDColumn: "id",
			InputColumns: inputCols, LayerFilter: true, NativeFunctions: true,
		})
		if err != nil {
			return nil, nil, err
		}
		query, err := gen.Generate()
		if err != nil {
			return nil, nil, err
		}
		return func() (int, error) {
			op, err := d.QueryOp(query)
			if err != nil {
				return 0, err
			}
			return countRows(op)
		}, nil, nil
	}
	return nil, nil, fmt.Errorf("bench: unknown approach %q", a)
}
