// Package geo models the spatial layer of the small cell network (paper
// Fig. 1): SCN placement on a 2-D service area, wireless-device positions
// and mobility, and the per-slot coverage relation D_{m,t} (which SCNs can
// hear which WDs). The paper notes that "a WD may be covered by multiple
// small cells, and WDs are free to move from one cell to another in
// different time slots" — overlapping circular coverage plus random-waypoint
// mobility reproduces exactly that.
package geo

import (
	"fmt"
	"math"

	"lfsc/internal/rng"
)

// Point is a position in meters on the service area.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance between two points.
func (p Point) Distance(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Area is a rectangular service area [0,W]×[0,H] in meters.
type Area struct {
	W, H float64
}

// Contains reports whether p lies inside the area.
func (a Area) Contains(p Point) bool {
	return p.X >= 0 && p.X <= a.W && p.Y >= 0 && p.Y <= a.H
}

// RandomPoint draws a uniform point inside the area.
func (a Area) RandomPoint(r *rng.Stream) Point {
	return Point{X: r.Uniform(0, a.W), Y: r.Uniform(0, a.H)}
}

// Clamp projects p onto the area.
func (a Area) Clamp(p Point) Point {
	if p.X < 0 {
		p.X = 0
	}
	if p.X > a.W {
		p.X = a.W
	}
	if p.Y < 0 {
		p.Y = 0
	}
	if p.Y > a.H {
		p.Y = a.H
	}
	return p
}

// PlaceGrid places n SCNs on a near-square grid covering the area, the
// typical planned street-light deployment. Cells sit at cell centers.
func PlaceGrid(a Area, n int) []Point {
	if n <= 0 {
		return nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(n) * a.W / math.Max(a.H, 1e-9))))
	if cols < 1 {
		cols = 1
	}
	rows := (n + cols - 1) / cols
	pts := make([]Point, 0, n)
	for r := 0; r < rows && len(pts) < n; r++ {
		for c := 0; c < cols && len(pts) < n; c++ {
			pts = append(pts, Point{
				X: (float64(c) + 0.5) * a.W / float64(cols),
				Y: (float64(r) + 0.5) * a.H / float64(rows),
			})
		}
	}
	return pts
}

// PlacePoisson scatters n SCNs uniformly at random (a binomial point
// process, the fixed-count variant of a Poisson deployment model).
func PlacePoisson(a Area, n int, r *rng.Stream) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = a.RandomPoint(r)
	}
	return pts
}

// Waypoint is the state of one WD under the random-waypoint mobility model:
// the device picks a destination uniformly in the area, walks toward it at
// its speed, pauses, then repeats.
type Waypoint struct {
	Pos    Point
	dest   Point
	speed  float64 // meters per slot
	pause  int     // remaining pause slots
	maxP   int
	paused bool
}

// NewWaypoint creates a WD at a random position with speed drawn from
// [minSpeed,maxSpeed] (meters per slot) and pauses up to maxPause slots.
func NewWaypoint(a Area, minSpeed, maxSpeed float64, maxPause int, r *rng.Stream) *Waypoint {
	w := &Waypoint{
		Pos:   a.RandomPoint(r),
		speed: r.Uniform(minSpeed, maxSpeed),
		maxP:  maxPause,
	}
	w.dest = a.RandomPoint(r)
	return w
}

// Step advances the WD by one time slot.
func (w *Waypoint) Step(a Area, r *rng.Stream) {
	if w.paused {
		w.pause--
		if w.pause <= 0 {
			w.paused = false
			w.dest = a.RandomPoint(r)
		}
		return
	}
	d := w.Pos.Distance(w.dest)
	if d <= w.speed {
		w.Pos = w.dest
		w.paused = true
		if w.maxP > 0 {
			w.pause = r.Intn(w.maxP + 1)
		}
		return
	}
	frac := w.speed / d
	w.Pos = a.Clamp(Point{
		X: w.Pos.X + (w.dest.X-w.Pos.X)*frac,
		Y: w.Pos.Y + (w.dest.Y-w.Pos.Y)*frac,
	})
}

// Coverage computes, for each SCN, the indices of WDs within radius —
// the geometric realisation of D_{m,t}. Complexity is O(M·N) with early
// bounding-box rejection; at paper scale (30 SCNs, a few thousand WDs) this
// is far from the simulation bottleneck.
func Coverage(scns []Point, wds []Point, radius float64) [][]int {
	out := make([][]int, len(scns))
	r2 := radius * radius
	for m, s := range scns {
		var covered []int
		for i, w := range wds {
			dx := s.X - w.X
			if dx < -radius || dx > radius {
				continue
			}
			dy := s.Y - w.Y
			if dy < -radius || dy > radius {
				continue
			}
			if dx*dx+dy*dy <= r2 {
				covered = append(covered, i)
			}
		}
		out[m] = covered
	}
	return out
}

// CoverageInto is the pooled form of Coverage: it fills dst (one row per
// SCN, rows re-sliced to length zero and grown to their high-water mark) and
// returns it. dst must have len(scns) rows; rows may be nil on first use.
func CoverageInto(dst [][]int, scns []Point, wds []Point, radius float64) [][]int {
	r2 := radius * radius
	for m, s := range scns {
		covered := dst[m][:0]
		for i, w := range wds {
			dx := s.X - w.X
			if dx < -radius || dx > radius {
				continue
			}
			dy := s.Y - w.Y
			if dy < -radius || dy > radius {
				continue
			}
			if dx*dx+dy*dy <= r2 {
				covered = append(covered, i)
			}
		}
		dst[m] = covered
	}
	return dst
}

// OverlapFraction returns the fraction of WDs covered by 2+ SCNs among WDs
// covered at all; it quantifies how much cross-SCN collaboration matters.
func OverlapFraction(cov [][]int, numWDs int) float64 {
	deg := make([]int, numWDs)
	for _, c := range cov {
		for _, i := range c {
			deg[i]++
		}
	}
	covered, multi := 0, 0
	for _, d := range deg {
		if d > 0 {
			covered++
			if d > 1 {
				multi++
			}
		}
	}
	if covered == 0 {
		return 0
	}
	return float64(multi) / float64(covered)
}

// Validate sanity-checks a deployment.
func Validate(a Area, scns []Point) error {
	if a.W <= 0 || a.H <= 0 {
		return fmt.Errorf("geo: non-positive area %vx%v", a.W, a.H)
	}
	for i, p := range scns {
		if !a.Contains(p) {
			return fmt.Errorf("geo: SCN %d at %v outside area", i, p)
		}
	}
	return nil
}
