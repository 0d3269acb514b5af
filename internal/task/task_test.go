package task

import (
	"math"
	"testing"
	"testing/quick"
)

func TestContextInRange(t *testing.T) {
	err := quick.Check(func(in, out float64, res uint8, lat bool) bool {
		tk := &Task{
			InputMbit:        5 + math.Abs(in)*15/(1+math.Abs(in)),
			OutputMbit:       1 + math.Abs(out)*3/(1+math.Abs(out)),
			Resource:         ResourceKind(res % 3),
			LatencySensitive: lat,
		}
		return tk.Context().Valid() && tk.ContextWithLatency().Valid()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestContextClampsOutOfRange(t *testing.T) {
	tk := &Task{InputMbit: 1000, OutputMbit: -5, Resource: CPU}
	c := tk.Context()
	if c[0] != 1 {
		t.Fatalf("oversize input should clamp to 1, got %v", c[0])
	}
	if c[1] != 0 {
		t.Fatalf("negative output should clamp to 0, got %v", c[1])
	}
}

func TestContextDims(t *testing.T) {
	tk := &Task{InputMbit: 10, OutputMbit: 2}
	if len(tk.Context()) != ContextDims {
		t.Fatalf("context dims = %d", len(tk.Context()))
	}
	if len(tk.ContextWithLatency()) != ContextDims+1 {
		t.Fatal("latency context should add one dim")
	}
}

func TestResourceCoordSeparation(t *testing.T) {
	// With an h=3 partition on [0,1], the three resource kinds must land in
	// three distinct cells: [0,1/3), [1/3,2/3), [2/3,1].
	coords := map[int]bool{}
	for r := 0; r < NumResourceKinds; r++ {
		c := resourceCoord(ResourceKind(r))
		cell := int(c * 3)
		if cell == 3 {
			cell = 2
		}
		if coords[cell] {
			t.Fatalf("resource kinds collide in cell %d", cell)
		}
		coords[cell] = true
	}
}

func TestContextNormalizationEndpoints(t *testing.T) {
	lo := &Task{InputMbit: MinInputMbit, OutputMbit: MinOutputMbit}
	hi := &Task{InputMbit: MaxInputMbit, OutputMbit: MaxOutputMbit}
	if c := lo.Context(); c[0] != 0 || c[1] != 0 {
		t.Fatalf("min task context = %v", c)
	}
	if c := hi.Context(); c[0] != 1 || c[1] != 1 {
		t.Fatalf("max task context = %v", c)
	}
}

// Every form of the context agrees, bit for bit, with min-max scaling
// clamped into [0,1] — including sizes outside the model's range and
// non-finite ones — and the latency coordinate appears only in the 4-D
// forms.
func TestContextFormsAgree(t *testing.T) {
	scale := func(v, lo, hi float64) float64 {
		x := (v - lo) / (hi - lo)
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	sizes := []float64{-3, 0, 1, 2.5, 4, 5, 7.25, 12.5, 20, 31, math.Inf(1), math.Inf(-1), math.NaN()}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, in := range sizes {
		for _, out := range sizes {
			for r := 0; r < NumResourceKinds; r++ {
				for _, lat := range []bool{false, true} {
					tk := &Task{InputMbit: in, OutputMbit: out, Resource: ResourceKind(r), LatencySensitive: lat}
					latC := 0.0
					if lat {
						latC = 1
					}
					want := Context{scale(in, MinInputMbit, MaxInputMbit), scale(out, MinOutputMbit, MaxOutputMbit),
						(float64(r) + 0.5) / float64(NumResourceKinds), latC}
					forms := map[string]Context{
						"Context":                  tk.Context(),
						"ContextWithLatency":       tk.ContextWithLatency(),
						"AppendContext(false)":     tk.AppendContext(nil, false),
						"AppendContext(true)":      tk.AppendContext(nil, true),
						"ContextCoords(false)[:3]": func() Context { a, b, c, _ := tk.ContextCoords(false); return Context{a, b, c} }(),
						"ContextCoords(true)":      func() Context { a, b, c, d := tk.ContextCoords(true); return Context{a, b, c, d} }(),
					}
					for name, got := range forms {
						for d := range got {
							if !same(got[d], want[d]) {
								t.Fatalf("%s of %+v: coord %d = %v, want %v", name, *tk, d, got[d], want[d])
							}
						}
					}
					if _, _, _, l := tk.ContextCoords(false); l != 0 {
						t.Fatalf("ContextCoords(false) of %+v reports latency %v", *tk, l)
					}
				}
			}
		}
	}
}

func TestContextValid(t *testing.T) {
	if !(Context{0, 0.5, 1}).Valid() {
		t.Fatal("valid context rejected")
	}
	if (Context{-0.1}).Valid() || (Context{1.1}).Valid() || (Context{math.NaN()}).Valid() {
		t.Fatal("invalid context accepted")
	}
}

func TestContextDistance(t *testing.T) {
	a := Context{0, 0}
	b := Context{3.0 / 5, 4.0 / 5}
	if d := a.Distance(b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("distance = %v", d)
	}
	if d := a.Distance(a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestContextDistancePanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	(Context{1}).Distance(Context{1, 2})
}

func TestContextClone(t *testing.T) {
	a := Context{0.1, 0.2}
	b := a.Clone()
	b[0] = 0.9
	if a[0] != 0.1 {
		t.Fatal("Clone aliases original")
	}
}

func TestResourceKindRoundTrip(t *testing.T) {
	for r := 0; r < NumResourceKinds; r++ {
		k := ResourceKind(r)
		parsed, err := ParseResourceKind(k.String())
		if err != nil || parsed != k {
			t.Fatalf("round trip %v: %v %v", k, parsed, err)
		}
	}
	if _, err := ParseResourceKind("quantum"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ParseResourceKind("both"); err != nil {
		t.Fatal("alias 'both' rejected")
	}
}

func TestValidate(t *testing.T) {
	good := &Task{ID: 1, InputMbit: 10, OutputMbit: 2, Resource: GPU}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	for _, bad := range []*Task{
		{InputMbit: -1, OutputMbit: 2},
		{InputMbit: 10, OutputMbit: math.NaN()},
		{InputMbit: 10, OutputMbit: 2, Resource: 99},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("invalid task accepted: %+v", bad)
		}
	}
}

func TestString(t *testing.T) {
	tk := &Task{ID: 7, WD: 3, InputMbit: 12, OutputMbit: 2, LatencySensitive: true, Resource: CPUGPU}
	s := tk.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	if (ResourceKind(42)).String() == "" {
		t.Fatal("unknown resource String empty")
	}
}
