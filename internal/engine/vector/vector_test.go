package vector

import (
	"math/rand"
	"testing"
	"testing/quick"

	"indbml/internal/engine/types"
)

func TestAppendAndGet(t *testing.T) {
	v := New(types.Float32, 0)
	for i := 0; i < 100; i++ {
		v.AppendDatum(types.Float32Datum(float32(i) / 2))
	}
	if v.Len() != 100 {
		t.Fatalf("len = %d", v.Len())
	}
	for i := 0; i < 100; i++ {
		if v.Float32s()[i] != float32(i)/2 {
			t.Fatalf("value %d corrupted", i)
		}
	}
}

func TestNullsMaterializeLazily(t *testing.T) {
	v := New(types.Int64, 4)
	v.SetLen(4)
	if v.HasNulls() {
		t.Error("fresh vector should have no null bitmap")
	}
	v.SetNull(2)
	if !v.HasNulls() || !v.NullAt(2) || v.NullAt(1) {
		t.Error("null tracking wrong")
	}
	v.SetDatum(2, types.Int64Datum(9))
	if v.NullAt(2) {
		t.Error("SetDatum should clear null")
	}
}

func TestAppendDatumNull(t *testing.T) {
	v := New(types.String, 0)
	v.AppendDatum(types.StringDatum("a"))
	v.AppendDatum(types.NullDatum(types.String))
	if v.NullAt(0) || !v.NullAt(1) {
		t.Error("null append wrong")
	}
	if d := v.Datum(1); !d.Null {
		t.Error("datum should be null")
	}
}

func TestCopyFromWithSelection(t *testing.T) {
	src := New(types.Int32, 0)
	for i := 0; i < 10; i++ {
		src.AppendDatum(types.Int32Datum(int32(i * 10)))
	}
	dst := New(types.Int32, 0)
	dst.CopyFrom(src, []int{9, 0, 5})
	if dst.Len() != 3 || dst.Int32s()[0] != 90 || dst.Int32s()[1] != 0 || dst.Int32s()[2] != 50 {
		t.Errorf("gather wrong: %v", dst.Int32s())
	}
}

func TestCopyFromPreservesNulls(t *testing.T) {
	src := New(types.Float64, 0)
	src.AppendDatum(types.Float64Datum(1))
	src.AppendDatum(types.NullDatum(types.Float64))
	src.AppendDatum(types.Float64Datum(3))
	dst := New(types.Float64, 0)
	dst.CopyFrom(src, []int{1, 2})
	if !dst.NullAt(0) || dst.NullAt(1) {
		t.Error("null gather wrong")
	}
	full := New(types.Float64, 0)
	full.CopyFrom(src, nil)
	if full.Len() != 3 || !full.NullAt(1) {
		t.Error("full copy wrong")
	}
}

func TestRoundTripProperty(t *testing.T) {
	err := quick.Check(func(vals []int64) bool {
		v := New(types.Int64, 0)
		for _, x := range vals {
			v.AppendDatum(types.Int64Datum(x))
		}
		if v.Len() != len(vals) {
			return false
		}
		for i, x := range vals {
			if v.Int64s()[i] != x {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestAsFloat64Conversions(t *testing.T) {
	for _, tc := range []struct {
		t types.T
		d types.Datum
	}{
		{types.Int32, types.Int32Datum(5)},
		{types.Int64, types.Int64Datum(5)},
		{types.Float32, types.Float32Datum(5)},
		{types.Float64, types.Float64Datum(5)},
	} {
		v := New(tc.t, 0)
		v.AppendDatum(tc.d)
		if v.AsFloat64(0) != 5 || v.AsInt64(0) != 5 {
			t.Errorf("%v conversion wrong", tc.t)
		}
	}
}

func TestMemSizeGrowsWithStrings(t *testing.T) {
	v := New(types.String, 0)
	base := v.MemSize()
	v.AppendDatum(types.StringDatum("hello world, this is a reasonably long payload"))
	if v.MemSize() <= base {
		t.Error("string payload not accounted")
	}
}

func TestBatchAppendRowArity(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.String},
	)
	b := NewBatch(schema, 4)
	if err := b.AppendRow(types.Int64Datum(1)); err == nil {
		t.Error("arity error expected")
	}
	if err := b.AppendRow(types.Int64Datum(1), types.StringDatum("x")); err != nil {
		t.Error(err)
	}
	row := b.Row(0)
	if row[0].I64 != 1 || row[1].S != "x" {
		t.Errorf("row = %v", row)
	}
}

func TestBatchGather(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "a", Type: types.Int32})
	b := NewBatch(schema, 8)
	for i := 0; i < 8; i++ {
		_ = b.AppendRow(types.Int32Datum(int32(i)))
	}
	b.Gather([]int{3, 7})
	if b.Len() != 2 || b.Vecs[0].Int32s()[0] != 3 || b.Vecs[0].Int32s()[1] != 7 {
		t.Errorf("gather wrong: %v", b.Vecs[0].Int32s())
	}
}

func TestBatchAppendBatch(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "a", Type: types.Float32})
	a := NewBatch(schema, 4)
	b := NewBatch(schema, 4)
	_ = a.AppendRow(types.Float32Datum(1))
	_ = b.AppendRow(types.Float32Datum(2))
	_ = b.AppendRow(types.Float32Datum(3))
	a.AppendBatch(b)
	if a.Len() != 3 || a.Vecs[0].Float32s()[2] != 3 {
		t.Errorf("append batch wrong: %v", a.Vecs[0].Float32s())
	}
}

func TestGrowPreservesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := New(types.Float64, 1) // tiny capacity forces repeated growth
	want := make([]float64, 5000)
	for i := range want {
		want[i] = rng.Float64()
		v.AppendDatum(types.Float64Datum(want[i]))
	}
	for i, w := range want {
		if v.Float64s()[i] != w {
			t.Fatalf("growth corrupted index %d", i)
		}
	}
}

func TestSetLenShrinkAndReset(t *testing.T) {
	v := New(types.Int32, 10)
	v.SetLen(10)
	v.SetNull(9)
	v.SetLen(5)
	if v.Len() != 5 {
		t.Error("shrink failed")
	}
	v.Reset()
	if v.Len() != 0 || v.HasNulls() {
		t.Error("reset failed")
	}
}
