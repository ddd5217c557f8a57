package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// countingBuild is a build input that counts its Opens and Closes. hook, when
// set, runs before every Next and may end the build with an error.
type countingBuild struct {
	*Values
	opens, closes atomic.Int32
	hook          func() error
}

func (c *countingBuild) Open() error  { c.opens.Add(1); return c.Values.Open() }
func (c *countingBuild) Close() error { c.closes.Add(1); return c.Values.Close() }

func (c *countingBuild) Next() (*vector.Batch, error) {
	if c.hook != nil {
		if err := c.hook(); err != nil {
			return nil, err
		}
	}
	return c.Values.Next()
}

// openSpy records the error its instance's Open returned.
type openSpy struct {
	Operator
	err error
}

func (s *openSpy) Open() error { s.err = s.Operator.Open(); return s.err }

// TestGeneratedSharedBuild runs 1–6 instances of a keyed HashJoin, a cross
// join or a GroupJoin under an Exchange of MaxParallel 1…N, every instance
// holding the same Build over a counting input. The input must be opened and
// closed once, the output must be bit-equal to the instances with private
// builds, and a failing or canceled build must fail every instance and the
// statement with its error, leaving no goroutine behind. A deadlock under
// MaxParallel 1 fails the watchdog. The keys are dense, so the instances
// probe one direct index, or strided, so they probe one hash table.
func TestGeneratedSharedBuild(t *testing.T) {
	rng := seeded(t)
	probeSchema := types.NewSchema(types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "node", Type: types.Int32}, types.Column{Name: "x", Type: types.Float32})
	buildSchema := types.NewSchema(types.Column{Name: "node_in", Type: types.Int32},
		types.Column{Name: "g", Type: types.Int32}, types.Column{Name: "w", Type: types.Float32})
	probeKey := []expr.Expr{expr.NewColRef(1, "node", types.Int32)}
	buildKey := []expr.Expr{expr.NewColRef(0, "node_in", types.Int32)}
	errBuild := errors.New("build failed")

	for iter := 0; iter < 24; iter++ {
		n := 1 + rng.Intn(6)
		maxPar := 1 + rng.Intn(n)
		if iter%4 == 0 {
			maxPar = 1
		}
		// Build sides of up to one and a half batches, about 8 rows a key;
		// a cross join's stays small.
		kind := []string{"HashJoin", "CrossJoin", "GroupJoin"}[rng.Intn(3)]
		nb := rng.Intn(3 * vector.Size / 2)
		if kind == "CrossJoin" {
			nb = rng.Intn(50)
		}
		domain, stride := 1+nb/8, []int32{1, 7919}[rng.Intn(2)]
		key := func() types.Datum {
			d := randWhole(rng, types.Int32, domain, 0.1)
			d.I64 *= int64(stride)
			return d
		}
		var buildRows [][]types.Datum
		keys := map[int64]bool{}
		for r := nb; r > 0; r-- {
			buildRows = append(buildRows, []types.Datum{key(),
				randWhole(rng, types.Int32, 4, 0.1), randOperand(rng, types.Float32, 0.1)})
			if k := buildRows[len(buildRows)-1][0]; !k.Null {
				keys[k.I64] = true
			}
		}
		// Dense keys fill their span; strided ones fit it only as one key.
		wantDirect := kind != "CrossJoin" && (stride == 1 && len(keys) > 0 || len(keys) == 1)
		buildBatches := chop(rng, buildSchema, buildRows)
		probes := make([][]*vector.Batch, n)
		for i := range probes {
			var rows [][]types.Datum
			for id := int64(0); id < int64(rng.Intn(150)); id++ {
				for k := 1 + rng.Intn(3); k > 0; k-- {
					rows = append(rows, []types.Datum{types.Int64Datum(int64(i)<<32 | id),
						key(), randOperand(rng, types.Float32, 0.1)})
				}
			}
			probes[i] = chop(rng, probeSchema, rows)
		}
		what := fmt.Sprintf("iter %d: %s, %d instances, MaxParallel %d, %d build rows, key stride %d",
			iter, kind, n, maxPar, len(buildRows), stride)

		// run executes the n instances over build, or over a private build
		// each when build is nil, and returns the sorted output, the
		// statement's error and each instance's Open error. shared is the
		// last shared Build.
		var shared *Build
		run := func(ctx context.Context, build *countingBuild) ([]string, error, []error) {
			shared = nil
			if build != nil {
				shared = NewBuild(build)
			}
			spies := make([]*openSpy, n)
			children := make([]Operator, n)
			for i := range children {
				b := shared
				if b == nil {
					b = NewBuild(&countingBuild{Values: NewValues(buildSchema, cloneBatches(buildBatches)...)})
				}
				probe := NewValues(probeSchema, cloneBatches(probes[i])...)
				var op Operator
				var err error
				switch kind {
				case "HashJoin":
					op, err = NewHashJoin(probe, b, probeKey, buildKey, true, nil)
				case "CrossJoin":
					op, err = NewCrossJoin(probe, b)
				default:
					op, err = NewGroupJoin(probe, b, probeKey, buildKey, []int{0, 4}, []string{"id", "g"}, 0,
						[]GroupJoinSum{{Probe: 2, Build: 2, Name: "s"}})
				}
				if err != nil {
					t.Fatal(err)
				}
				spies[i] = &openSpy{Operator: op}
				children[i] = spies[i]
			}
			ex, err := NewExchange(children, maxPar)
			if err != nil {
				t.Fatal(err)
			}
			ex.Ctx = ctx
			type result struct {
				out *vector.Batch
				err error
			}
			done := make(chan result, 1)
			go func() {
				out, err := Collect(ex)
				done <- result{out, err}
			}()
			var res result
			select {
			case res = <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("%s: the statement did not finish", what)
			}
			errs := make([]error, n)
			for i, s := range spies {
				errs[i] = s.err
			}
			if res.err != nil {
				return nil, res.err, errs
			}
			rows := bitRows(res.out, res.out.Schema.Len())
			slices.Sort(rows)
			return rows, nil, errs
		}

		want, err, _ := run(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: private builds: %v", what, err)
		}
		counted := &countingBuild{Values: NewValues(buildSchema, cloneBatches(buildBatches)...)}
		got, err, _ := run(context.Background(), counted)
		if err != nil {
			t.Fatalf("%s: shared build: %v", what, err)
		}
		if o, c := counted.opens.Load(), counted.closes.Load(); o != 1 || c != 1 {
			t.Fatalf("%s: the shared build input opened %d times and closed %d, want once each", what, o, c)
		}
		if direct := shared.direct.slots != nil; direct != wantDirect {
			t.Fatalf("%s: the shared build's direct index is %v, want %v", what, direct, wantDirect)
		}
		compareRows(t, what, got, want)

		// A build that fails, at its first batch or later, fails every
		// instance and the statement with its error.
		failAt := rng.Intn(len(buildBatches) + 1)
		failing := &countingBuild{Values: NewValues(buildSchema, cloneBatches(buildBatches)...)}
		failing.hook = func() error {
			if failAt--; failAt < 0 {
				return errBuild
			}
			return nil
		}
		_, err, errs := run(context.Background(), failing)
		if !errors.Is(err, errBuild) {
			t.Fatalf("%s: failing build: statement returned %v", what, err)
		}
		for i, e := range errs {
			if !errors.Is(e, errBuild) {
				t.Fatalf("%s: failing build: instance %d opened with %v", what, i, e)
			}
		}
		if o, c := failing.opens.Load(), failing.closes.Load(); o != 1 || c != 1 {
			t.Fatalf("%s: failing build opened %d times and closed %d, want once each", what, o, c)
		}

		// A statement canceled while the build runs returns ctx.Err(), as
		// does every instance, and leaves no goroutine behind.
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		canceled := &countingBuild{Values: NewValues(buildSchema, cloneBatches(buildBatches)...)}
		started := make(chan struct{})
		canceled.hook = func() error {
			close(started)
			<-ctx.Done()
			return ctx.Err()
		}
		go func() {
			<-started
			cancel()
		}()
		_, err, errs = run(ctx, canceled)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled build: statement returned %v", what, err)
		}
		for i, e := range errs {
			if !errors.Is(e, context.Canceled) {
				t.Fatalf("%s: canceled build: instance %d opened with %v", what, i, e)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("%s: canceled build left %d goroutines behind", what, g-before)
		}
	}
}
