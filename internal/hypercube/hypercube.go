// Package hypercube implements the uniform partition of the context space
// used by LFSC (paper Sec. 4.2): Φ = [0,1]^{D_b} is divided into (h_T)^{D_b}
// identical hypercubes, and the learner maintains one weight and one set of
// parameter estimates per hypercube instead of per raw context. The partition
// is the device that tames the "massive contexts" problem: under the paper's
// Hölder continuity assumption, contexts in the same cell have similar
// expected feedback.
package hypercube

import (
	"fmt"

	"lfsc/internal/task"
)

// Partition is a uniform grid over [0,1]^dims with h cells per dimension.
// It is immutable after construction and safe for concurrent use.
type Partition struct {
	dims  int
	h     int
	cells int
}

// New creates a partition of the dims-dimensional unit cube with h parts per
// dimension. It returns an error for non-positive dims or h, and for
// partitions whose cell count overflows a practical table size.
func New(dims, h int) (*Partition, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("hypercube: dims must be positive, got %d", dims)
	}
	if h <= 0 {
		return nil, fmt.Errorf("hypercube: h must be positive, got %d", h)
	}
	cells := 1
	for d := 0; d < dims; d++ {
		next := cells * h
		if next/h != cells || next > 1<<24 {
			return nil, fmt.Errorf("hypercube: partition %d^%d too large", h, dims)
		}
		cells = next
	}
	return &Partition{dims: dims, h: h, cells: cells}, nil
}

// MustNew is New but panics on error; for static configurations.
func MustNew(dims, h int) *Partition {
	p, err := New(dims, h)
	if err != nil {
		panic(err)
	}
	return p
}

// Dims returns the number of context dimensions D_b.
func (p *Partition) Dims() int { return p.dims }

// H returns the number of parts per dimension h_T.
func (p *Partition) H() int { return p.h }

// Cells returns the total number of hypercubes (h_T)^{D_b}.
func (p *Partition) Cells() int { return p.cells }

// Index maps a context to its hypercube index in [0, Cells()). Coordinates
// equal to 1.0 map into the last cell (cells are half-open except the last).
// It panics if the context dimension does not match the partition.
func (p *Partition) Index(ctx task.Context) int {
	p.checkDims(len(ctx))
	idx := 0
	for d := 0; d < p.dims; d++ {
		idx = idx*p.h + p.Coord(ctx[d])
	}
	return idx
}

// Coord maps one context coordinate to its cell coordinate along a
// dimension, ⌊v·h⌋ clamped into [0, h); Index packs the per-dimension
// coordinates mixed-radix, most significant first. Decoders that read a
// context one coordinate at a time fold it with the same formula.
func (p *Partition) Coord(v float64) int {
	c := int(v * float64(p.h))
	if c < 0 {
		c = 0
	}
	if c >= p.h {
		c = p.h - 1
	}
	return c
}

// IndexTask maps a task directly to its hypercube index: it folds the
// task's ContextCoords into the mixed-radix index in Index's order, so
// IndexTask(t, lat) == Index(ctx) where ctx is the task's (possibly
// latency-extended) context, without building ctx. withLatency must match
// the partition's dimensionality (4 dims ⇔ true); a mismatch panics as
// Index does.
func (p *Partition) IndexTask(t *task.Task, withLatency bool) int {
	dims := task.ContextDims
	if withLatency {
		dims++
	}
	p.checkDims(dims)
	in, out, res, lat := t.ContextCoords(withLatency)
	idx := (p.Coord(in)*p.h+p.Coord(out))*p.h + p.Coord(res)
	if withLatency {
		idx = idx*p.h + p.Coord(lat)
	}
	return idx
}

// checkDims panics unless a context of n coordinates fits the partition.
func (p *Partition) checkDims(n int) {
	if n != p.dims {
		panic(fmt.Sprintf("hypercube: context dims %d != partition dims %d", n, p.dims))
	}
}

// Coords returns the per-dimension cell coordinates of hypercube idx,
// the inverse of the mixed-radix packing in Index.
func (p *Partition) Coords(idx int) []int {
	if idx < 0 || idx >= p.cells {
		panic(fmt.Sprintf("hypercube: index %d out of range [0,%d)", idx, p.cells))
	}
	coords := make([]int, p.dims)
	for d := p.dims - 1; d >= 0; d-- {
		coords[d] = idx % p.h
		idx /= p.h
	}
	return coords
}

// Center returns the geometric center of hypercube idx, useful as the
// representative context of a cell in reports and in the Oracle.
func (p *Partition) Center(idx int) task.Context {
	coords := p.Coords(idx)
	ctx := make(task.Context, p.dims)
	for d, c := range coords {
		ctx[d] = (float64(c) + 0.5) / float64(p.h)
	}
	return ctx
}

// SideLength returns the edge length 1/h_T of each hypercube.
func (p *Partition) SideLength() float64 { return 1 / float64(p.h) }

// Contains reports whether ctx falls inside hypercube idx.
func (p *Partition) Contains(idx int, ctx task.Context) bool {
	return p.Index(ctx) == idx
}

// IndexAll maps a batch of contexts, reusing the provided slice when it has
// sufficient capacity. Hot path of Alg. 2 lines 1-5.
func (p *Partition) IndexAll(ctxs []task.Context, into []int) []int {
	if cap(into) < len(ctxs) {
		into = make([]int, len(ctxs))
	}
	into = into[:len(ctxs)]
	for i, c := range ctxs {
		into[i] = p.Index(c)
	}
	return into
}

// String describes the partition.
func (p *Partition) String() string {
	return fmt.Sprintf("partition{dims=%d h=%d cells=%d}", p.dims, p.h, p.cells)
}
