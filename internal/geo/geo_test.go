package geo

import (
	"math"
	"testing"

	"lfsc/internal/rng"
)

func TestPointDistance(t *testing.T) {
	if d := (Point{0, 0}).Distance(Point{3, 4}); d != 5 {
		t.Fatalf("distance = %v", d)
	}
}

func TestAreaContainsClamp(t *testing.T) {
	a := Area{W: 10, H: 5}
	if !a.Contains(Point{5, 2}) || a.Contains(Point{-1, 2}) || a.Contains(Point{5, 6}) {
		t.Fatal("Contains wrong")
	}
	p := a.Clamp(Point{-3, 100})
	if p.X != 0 || p.Y != 5 {
		t.Fatalf("Clamp = %v", p)
	}
}

func TestRandomPointInside(t *testing.T) {
	a := Area{W: 100, H: 50}
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		if !a.Contains(a.RandomPoint(r)) {
			t.Fatal("RandomPoint outside area")
		}
	}
}

func TestPlaceGrid(t *testing.T) {
	a := Area{W: 1000, H: 1000}
	for _, n := range []int{1, 4, 9, 30, 100} {
		pts := PlaceGrid(a, n)
		if len(pts) != n {
			t.Fatalf("PlaceGrid(%d) returned %d points", n, len(pts))
		}
		for _, p := range pts {
			if !a.Contains(p) {
				t.Fatalf("grid point %v outside area", p)
			}
		}
	}
	if PlaceGrid(a, 0) != nil {
		t.Fatal("PlaceGrid(0) should be nil")
	}
}

func TestPlaceGridSpread(t *testing.T) {
	// Grid points must be pairwise distinct and reasonably spread.
	a := Area{W: 900, H: 900}
	pts := PlaceGrid(a, 9)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Distance(pts[j]) < 100 {
				t.Fatalf("grid points %v and %v too close", pts[i], pts[j])
			}
		}
	}
}

func TestPlacePoisson(t *testing.T) {
	a := Area{W: 500, H: 500}
	pts := PlacePoisson(a, 30, rng.New(2))
	if len(pts) != 30 {
		t.Fatalf("PlacePoisson count %d", len(pts))
	}
	for _, p := range pts {
		if !a.Contains(p) {
			t.Fatal("poisson point outside area")
		}
	}
}

func TestWaypointStaysInsideAndMoves(t *testing.T) {
	a := Area{W: 200, H: 200}
	r := rng.New(3)
	w := NewWaypoint(a, 1, 5, 3, r)
	start := w.Pos
	moved := false
	for i := 0; i < 500; i++ {
		w.Step(a, r)
		if !a.Contains(w.Pos) {
			t.Fatalf("WD left area at step %d: %v", i, w.Pos)
		}
		if w.Pos.Distance(start) > 1e-9 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("WD never moved")
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	a := Area{W: 1000, H: 1000}
	r := rng.New(4)
	w := NewWaypoint(a, 2, 2, 0, r)
	prev := w.Pos
	for i := 0; i < 1000; i++ {
		w.Step(a, r)
		if d := w.Pos.Distance(prev); d > 2+1e-9 {
			t.Fatalf("WD moved %v > speed 2 in one slot", d)
		}
		prev = w.Pos
	}
}

func TestCoverage(t *testing.T) {
	scns := []Point{{0, 0}, {10, 0}}
	wds := []Point{{1, 0}, {5, 0}, {9, 0}, {100, 100}}
	cov := Coverage(scns, wds, 5)
	// SCN0 covers WD0 (d=1) and WD1 (d=5, inclusive). SCN1 covers WD1, WD2.
	if len(cov[0]) != 2 || cov[0][0] != 0 || cov[0][1] != 1 {
		t.Fatalf("cov[0] = %v", cov[0])
	}
	if len(cov[1]) != 2 || cov[1][0] != 1 || cov[1][1] != 2 {
		t.Fatalf("cov[1] = %v", cov[1])
	}
}

func TestCoverageMatchesBruteForce(t *testing.T) {
	r := rng.New(5)
	a := Area{W: 300, H: 300}
	scns := PlacePoisson(a, 10, r)
	wds := PlacePoisson(a, 200, r)
	const radius = 60.0
	cov := Coverage(scns, wds, radius)
	for m, s := range scns {
		want := map[int]bool{}
		for i, w := range wds {
			if s.Distance(w) <= radius {
				want[i] = true
			}
		}
		if len(want) != len(cov[m]) {
			t.Fatalf("SCN %d coverage size %d, brute force %d", m, len(cov[m]), len(want))
		}
		for _, i := range cov[m] {
			if !want[i] {
				t.Fatalf("SCN %d wrongly covers WD %d", m, i)
			}
		}
	}
}

func TestOverlapFraction(t *testing.T) {
	// WD0 covered by both SCNs, WD1 by one, WD2 by none.
	cov := [][]int{{0, 1}, {0}}
	f := OverlapFraction(cov, 3)
	if math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("overlap = %v, want 0.5", f)
	}
	if OverlapFraction([][]int{{}, {}}, 5) != 0 {
		t.Fatal("no-coverage overlap should be 0")
	}
}

func TestOverlapIncreasesWithRadius(t *testing.T) {
	r := rng.New(6)
	a := Area{W: 400, H: 400}
	scns := PlaceGrid(a, 16)
	wds := PlacePoisson(a, 500, r)
	small := OverlapFraction(Coverage(scns, wds, 60), len(wds))
	large := OverlapFraction(Coverage(scns, wds, 150), len(wds))
	if large <= small {
		t.Fatalf("overlap should grow with radius: %v vs %v", small, large)
	}
}

func TestValidate(t *testing.T) {
	a := Area{W: 10, H: 10}
	if err := Validate(a, []Point{{5, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(a, []Point{{50, 5}}); err == nil {
		t.Fatal("outside SCN accepted")
	}
	if err := Validate(Area{W: 0, H: 10}, nil); err == nil {
		t.Fatal("empty area accepted")
	}
}

func BenchmarkCoverage(b *testing.B) {
	r := rng.New(7)
	a := Area{W: 2000, H: 2000}
	scns := PlaceGrid(a, 30)
	wds := PlacePoisson(a, 2000, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Coverage(scns, wds, 400)
	}
}
