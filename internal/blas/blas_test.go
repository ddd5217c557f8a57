package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference implementation Sgemm is validated against: one
// dot product per output, summed in k order from zero, then added to C. B is
// transposed first only so the dot products read contiguous memory.
func naiveGemm(a, b, c Mat) {
	bt := NewMat(b.Cols, b.Rows)
	Transpose(b, bt)
	for i := 0; i < a.Rows; i++ {
		ai := a.Row(i)
		ci := c.Row(i)
		for j := range ci {
			var sum float32
			for k, v := range bt.Row(j) {
				sum += ai[k] * v
			}
			ci[j] += sum
		}
	}
}

func randMat(rng *rand.Rand, rows, cols int) Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func TestSgemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{1, 1, 1}, {3, 4, 5}, {16, 16, 16}, {33, 7, 65}, {128, 64, 100}, {1024, 4, 32}}
	for _, s := range shapes {
		a := randMat(rng, s[0], s[1])
		b := randMat(rng, s[1], s[2])
		c := randMat(rng, s[0], s[2])
		want := c.Clone()
		Sgemm(a, b, c)
		naiveGemm(a, b, want)
		if !c.Equal(want, 1e-4) {
			t.Errorf("Sgemm(%v) diverges from naive reference", s)
		}
	}
}

func TestSgemmIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 17, 17)
	id := NewMat(17, 17)
	for i := 0; i < 17; i++ {
		id.Set(i, i, 1)
	}
	c := NewMat(17, 17)
	Sgemm(a, id, c)
	if !c.Equal(a, 1e-6) {
		t.Error("A·I != A")
	}
}

func TestSgemmDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Sgemm(NewMat(2, 3), NewMat(4, 2), NewMat(2, 2))
}

func TestTransposeInvolution(t *testing.T) {
	err := quick.Check(func(seed int64, rowsRaw, colsRaw uint8) bool {
		rows, cols := int(rowsRaw)%50+1, int(colsRaw)%50+1
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, rows, cols)
		at := NewMat(cols, rows)
		Transpose(a, at)
		att := NewMat(rows, cols)
		Transpose(at, att)
		return a.Equal(att, 0)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestTransposeElement(t *testing.T) {
	a := NewMat(2, 3)
	for i := range a.Data {
		a.Data[i] = float32(i)
	}
	at := NewMat(3, 2)
	Transpose(a, at)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	z := make([]float32, 3)
	VsMul(x, y, z)
	if z[0] != 4 || z[1] != 10 || z[2] != 18 {
		t.Errorf("VsMul = %v", z)
	}
	VsAdd(x, y, z)
	if z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Errorf("VsAdd = %v", z)
	}
}

func TestActivations(t *testing.T) {
	x := []float32{-2, 0, 2}
	s := append([]float32(nil), x...)
	Sigmoid(s)
	for i, v := range x {
		want := float32(1 / (1 + math.Exp(-float64(v))))
		if d := s[i] - want; d > 1e-6 || d < -1e-6 {
			t.Errorf("sigmoid(%v) = %v, want %v", v, s[i], want)
		}
	}
	th := append([]float32(nil), x...)
	Tanh(th)
	if th[1] != 0 || th[0] >= 0 || th[2] <= 0 {
		t.Errorf("tanh = %v", th)
	}
}

func TestSigmoidBounds(t *testing.T) {
	err := quick.Check(func(v float32) bool {
		x := []float32{v}
		Sigmoid(x)
		return x[0] >= 0 && x[0] <= 1 && !math.IsNaN(float64(x[0]))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestFlopsGemm(t *testing.T) {
	if got := FlopsGemm(10, 20, 30); got != 12000 {
		t.Errorf("FlopsGemm = %d, want 12000", got)
	}
}

func BenchmarkSgemm128(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 1024, 128)
	w := randMat(rng, 128, 128)
	c := NewMat(1024, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sgemm(a, w, c)
	}
}
