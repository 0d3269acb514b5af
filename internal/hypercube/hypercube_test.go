package hypercube

import (
	"math"
	"testing"
	"testing/quick"

	"lfsc/internal/rng"
	"lfsc/internal/task"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Fatal("dims=0 accepted")
	}
	if _, err := New(3, 0); err == nil {
		t.Fatal("h=0 accepted")
	}
	if _, err := New(30, 10); err == nil {
		t.Fatal("overflowing partition accepted")
	}
	p, err := New(3, 3)
	if err != nil || p.Cells() != 27 {
		t.Fatalf("3^3 partition: %v %v", p, err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(-1, 3)
}

func TestIndexBounds(t *testing.T) {
	p := MustNew(3, 3)
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		ctx := task.Context{r.Float64(), r.Float64(), r.Float64()}
		idx := p.Index(ctx)
		if idx < 0 || idx >= p.Cells() {
			t.Fatalf("index %d out of range for %v", idx, ctx)
		}
	}
}

func TestIndexEdgeCases(t *testing.T) {
	p := MustNew(2, 4)
	// 1.0 maps to the last cell, not out of range.
	if idx := p.Index(task.Context{1, 1}); idx != p.Cells()-1 {
		t.Fatalf("corner (1,1) → %d, want %d", idx, p.Cells()-1)
	}
	if idx := p.Index(task.Context{0, 0}); idx != 0 {
		t.Fatalf("corner (0,0) → %d, want 0", idx)
	}
}

func TestIndexCenterRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ dims, h int }{{1, 1}, {1, 5}, {2, 3}, {3, 3}, {4, 2}} {
		p := MustNew(cfg.dims, cfg.h)
		for idx := 0; idx < p.Cells(); idx++ {
			if got := p.Index(p.Center(idx)); got != idx {
				t.Fatalf("partition %v: center of %d maps to %d", p, idx, got)
			}
		}
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	p := MustNew(3, 4)
	for idx := 0; idx < p.Cells(); idx++ {
		coords := p.Coords(idx)
		back := 0
		for _, c := range coords {
			back = back*p.H() + c
		}
		if back != idx {
			t.Fatalf("coords round trip %d → %v → %d", idx, coords, back)
		}
	}
}

func TestSameCellContextsAreClose(t *testing.T) {
	// Property: any two contexts in the same cell are within sqrt(D)/h of
	// each other — the geometric fact the Hölder argument relies on.
	p := MustNew(3, 3)
	r := rng.New(2)
	maxDist := math.Sqrt(3) / 3
	for trial := 0; trial < 5000; trial++ {
		a := task.Context{r.Float64(), r.Float64(), r.Float64()}
		b := task.Context{r.Float64(), r.Float64(), r.Float64()}
		if p.Index(a) == p.Index(b) && a.Distance(b) > maxDist+1e-12 {
			t.Fatalf("same-cell contexts %v and %v at distance %v > %v",
				a, b, a.Distance(b), maxDist)
		}
	}
}

func TestIndexQuick(t *testing.T) {
	p := MustNew(2, 7)
	err := quick.Check(func(x, y float64) bool {
		fx := math.Abs(math.Mod(x, 1))
		fy := math.Abs(math.Mod(y, 1))
		idx := p.Index(task.Context{fx, fy})
		return idx >= 0 && idx < p.Cells() && p.Contains(idx, task.Context{fx, fy})
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexPanicsOnDimMismatch(t *testing.T) {
	p := MustNew(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch did not panic")
		}
	}()
	p.Index(task.Context{0.5})
}

// TestIndexTaskMatchesIndex checks IndexTask against the reference
// Index(AppendContext(...)) on 3-D and 4-D partitions, over random tasks
// whose sizes run past both ends of the model's range (normalize clamps
// those) and over non-finite sizes.
func TestIndexTaskMatchesIndex(t *testing.T) {
	r := rng.New(23)
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1e9}
	for _, h := range []int{1, 2, 3, 7} {
		for _, lat := range []bool{false, true} {
			dims := task.ContextDims
			if lat {
				dims++
			}
			p := MustNew(dims, h)
			for i := 0; i < 2000; i++ {
				tk := task.Task{
					InputMbit:        r.Uniform(-10, 35),
					OutputMbit:       r.Uniform(-2, 7),
					LatencySensitive: r.Bernoulli(0.5),
					Resource:         task.ResourceKind(r.Intn(task.NumResourceKinds)),
				}
				if i < len(odd)*len(odd) {
					tk.InputMbit, tk.OutputMbit = odd[i/len(odd)], odd[i%len(odd)]
				}
				var buf [4]float64
				want := p.Index(tk.AppendContext(buf[:0], lat))
				if got := p.IndexTask(&tk, lat); got != want {
					t.Fatalf("h=%d lat=%v task %+v: IndexTask %d, Index %d", h, lat, tk, got, want)
				}
			}
		}
	}
}

// IndexTask on a partition of the other dimensionality panics with the
// same text as Index does.
func TestIndexTaskPanicsOnDimMismatch(t *testing.T) {
	tk := &task.Task{InputMbit: 10, OutputMbit: 2}
	for _, c := range []struct {
		dims int
		lat  bool
	}{{3, true}, {4, false}, {2, false}} {
		p := MustNew(c.dims, 3)
		var buf [4]float64
		want := recovered(func() { p.Index(tk.AppendContext(buf[:0], c.lat)) })
		got := recovered(func() { p.IndexTask(tk, c.lat) })
		if want == nil || got != want {
			t.Fatalf("dims=%d lat=%v: IndexTask panicked with %v, Index with %v", c.dims, c.lat, got, want)
		}
	}
}

func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func TestCoordsPanicsOutOfRange(t *testing.T) {
	p := MustNew(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	p.Coords(4)
}

func TestIndexAll(t *testing.T) {
	p := MustNew(2, 3)
	ctxs := []task.Context{{0, 0}, {0.5, 0.5}, {1, 1}}
	idx := p.IndexAll(ctxs, nil)
	if len(idx) != 3 {
		t.Fatalf("IndexAll length %d", len(idx))
	}
	for i, c := range ctxs {
		if idx[i] != p.Index(c) {
			t.Fatalf("IndexAll[%d] = %d, want %d", i, idx[i], p.Index(c))
		}
	}
	// Reuses capacity.
	buf := make([]int, 0, 8)
	idx2 := p.IndexAll(ctxs, buf)
	if cap(idx2) != 8 {
		t.Fatal("IndexAll did not reuse provided buffer")
	}
}

func TestSideLength(t *testing.T) {
	if MustNew(3, 4).SideLength() != 0.25 {
		t.Fatal("SideLength")
	}
}

func TestPaperConfiguration(t *testing.T) {
	// The paper's evaluation: 3 context dims (input, output, resource kind),
	// each split in 3 → 27 hypercubes; resource kinds land in distinct cells.
	p := MustNew(task.ContextDims, 3)
	if p.Cells() != 27 {
		t.Fatalf("paper partition cells = %d", p.Cells())
	}
	seen := map[int]bool{}
	for r := 0; r < task.NumResourceKinds; r++ {
		tk := &task.Task{InputMbit: 10, OutputMbit: 2, Resource: task.ResourceKind(r)}
		seen[p.Index(tk.Context())] = true
	}
	if len(seen) != 3 {
		t.Fatalf("resource kinds occupy %d cells, want 3", len(seen))
	}
}

func BenchmarkIndex(b *testing.B) {
	p := MustNew(3, 3)
	ctx := task.Context{0.3, 0.7, 0.5}
	for i := 0; i < b.N; i++ {
		_ = p.Index(ctx)
	}
}
