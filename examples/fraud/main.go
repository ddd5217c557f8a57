// Fraud scoring inside analytics — the motivation of the paper's
// introduction made concrete. Payment rows carry sensitive payload columns
// (account identifiers) that must not leave the database; model inference
// is pushed into the engine, and only *aggregated* scores cross the
// boundary (Sec. 1, "accessing sensitive data").
//
// The example also shows the paper's "late projection" contrast: with
// ML-To-SQL the payload is re-joined after inference, while the native
// ModelJoin simply passes payload columns through (Sec. 5.3).
//
// Run with: go run ./examples/fraud
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

const payments = 50_000

func main() {
	d := db.Open(db.Options{DefaultPartitions: 8, Parallelism: 8})

	// Payments with features (amount, hour, velocity, distance) and a
	// sensitive payload (account) the client must never see row-wise.
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "amount", Type: types.Float32},
		types.Column{Name: "hour", Type: types.Float32},
		types.Column{Name: "velocity", Type: types.Float32},
		types.Column{Name: "distance", Type: types.Float32},
		types.Column{Name: "region", Type: types.Int32},
		types.Column{Name: "account", Type: types.String},
	)
	tbl := storage.NewTable("payments", schema, storage.Options{Partitions: 8})
	tbl.SetSortedBy(0)
	tbl.SetUniqueKey(0)
	rng := rand.New(rand.NewSource(11))
	fraudGen := func() ([]float32, bool) {
		amount := rng.Float32() * 1000
		hour := rng.Float32() * 24
		velocity := rng.Float32() * 10
		distance := rng.Float32() * 100
		isFraud := amount > 800 && (hour < 5 || velocity > 8)
		return []float32{amount, hour, velocity, distance}, isFraud
	}
	b := vector.NewBatch(schema, payments)
	b.SetLen(payments)
	for i := range payments {
		f, _ := fraudGen()
		b.Vecs[0].Int64s()[i] = int64(i)
		for j, x := range f {
			b.Vecs[1+j].Float32s()[i] = x
		}
		b.Vecs[5].Int32s()[i] = int32(i % 5)
		b.Vecs[6].Strings()[i] = fmt.Sprintf("ACCT-%06d", rng.Intn(10000))
	}
	if err := tbl.Append(b); err != nil {
		log.Fatal(err)
	}
	d.RegisterTable(tbl)

	// Train the fraud scorer on (normalized) synthetic labels.
	var x, y [][]float32
	for i := 0; i < 4000; i++ {
		f, isFraud := fraudGen()
		label := float32(0)
		if isFraud {
			label = 1
		}
		x = append(x, []float32{f[0] / 1000, f[1] / 24, f[2] / 10, f[3] / 100})
		y = append(y, []float32{label})
	}
	model := &nn.Model{Name: "fraud_model", Layers: []nn.Layer{
		nn.NewDense(4, 12, nn.Tanh),
		nn.NewDense(12, 1, nn.Sigmoid),
	}}
	for _, l := range model.Layers {
		dl := l.(*nn.Dense)
		for i := range dl.W.Data {
			dl.W.Data[i] = rng.Float32() - 0.5
		}
	}
	loss, err := nn.Train(model, x, y, nn.TrainConfig{Epochs: 120, LearningRate: 0.3, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained fraud_model, loss %.4f\n", loss)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 8}); err != nil {
		log.Fatal(err)
	}

	// The whole pipeline in one query: normalize features in SQL, score
	// with MODEL JOIN, aggregate per region. Only aggregates leave the
	// engine; account identifiers never do.
	query := `
		SELECT region,
		       COUNT(*) AS flagged,
		       AVG(prediction) AS avg_score,
		       MAX(prediction) AS worst
		FROM (SELECT region,
		             amount / 1000 AS f_amount, hour / 24 AS f_hour,
		             velocity / 10 AS f_velocity, distance / 100 AS f_distance
		      FROM payments) AS norm
		     MODEL JOIN fraud_model PREDICT (f_amount, f_hour, f_velocity, f_distance)
		WHERE prediction > 0.5
		GROUP BY region
		ORDER BY region`
	start := time.Now()
	res, err := d.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfraud flags per region (%d payments scored in %s):\n",
		payments, time.Since(start).Round(time.Millisecond))
	fmt.Printf("%8s %9s %10s %8s\n", "region", "flagged", "avg_score", "worst")
	for r := 0; r < res.Len(); r++ {
		fmt.Printf("%8s %9s %10.3s %8.4s\n",
			res.Vecs[0].Datum(r), res.Vecs[1].Datum(r), res.Vecs[2].Datum(r), res.Vecs[3].Datum(r))
	}

	// Investigators with clearance can still drill in — payload columns
	// (account) flow through the ModelJoin untouched (Sec. 5.3), no late
	// projection needed.
	res, err = d.Query(`
		SELECT account, prediction
		FROM (SELECT account,
		             amount / 1000 AS f_amount, hour / 24 AS f_hour,
		             velocity / 10 AS f_velocity, distance / 100 AS f_distance
		      FROM payments) AS norm
		     MODEL JOIN fraud_model PREDICT (f_amount, f_hour, f_velocity, f_distance)
		ORDER BY prediction DESC
		LIMIT 3`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop suspicious payments (clearance required):")
	for r := 0; r < res.Len(); r++ {
		fmt.Printf("  %s score %s\n", res.Vecs[0].Datum(r), res.Vecs[1].Datum(r))
	}
}
