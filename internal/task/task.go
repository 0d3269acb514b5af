// Package task defines the computing-task model of the paper's Sec. 3.2:
// each offloading request carries meta information (input data size, output
// data size, latency class, required compute resource kind, ...) summarised
// as a context vector φ ∈ [0,1]^{D_b}. The MBS never sees the raw task
// payload, only this context plus, after execution, the realised reward,
// completion indicator and resource consumption.
package task

import (
	"fmt"
	"math"
)

// ResourceKind is the type of compute resource a task depends on.
// The paper's evaluation uses three kinds: CPU, GPU, or both.
type ResourceKind int

const (
	CPU ResourceKind = iota
	GPU
	CPUGPU // task needs both CPU and GPU
	numResourceKinds
)

// NumResourceKinds is the number of distinct resource kinds.
const NumResourceKinds = int(numResourceKinds)

// String implements fmt.Stringer.
func (r ResourceKind) String() string {
	switch r {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	case CPUGPU:
		return "cpu+gpu"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// ParseResourceKind is the inverse of String, used by the CSV trace loader.
func ParseResourceKind(s string) (ResourceKind, error) {
	switch s {
	case "cpu":
		return CPU, nil
	case "gpu":
		return GPU, nil
	case "cpu+gpu", "both":
		return CPUGPU, nil
	}
	return 0, fmt.Errorf("task: unknown resource kind %q", s)
}

// Context is a point in the normalised context space Φ = [0,1]^{D_b}.
type Context []float64

// Valid reports whether every coordinate lies in [0,1] and is finite.
func (c Context) Valid() bool {
	for _, v := range c {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the context.
func (c Context) Clone() Context {
	return append(Context(nil), c...)
}

// Distance returns the Euclidean distance between two contexts of equal
// dimension (the metric of the paper's Hölder continuity Assumption 1).
func (c Context) Distance(o Context) float64 {
	if len(c) != len(o) {
		panic("task: context dimension mismatch")
	}
	sum := 0.0
	for i := range c {
		d := c[i] - o[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Bounds of the raw meta-information used by the paper's evaluation
// (Sec. 5): input 5–20 Mbit, output 1–4 Mbit.
const (
	MinInputMbit  = 5.0
	MaxInputMbit  = 20.0
	MinOutputMbit = 1.0
	MaxOutputMbit = 4.0
)

// Task is one offloading request from a wireless device.
type Task struct {
	// ID is unique within a simulation run.
	ID int64
	// WD identifies the originating wireless device (for mobility traces).
	WD int
	// InputMbit is the input data size to transmit WD → SCN.
	InputMbit float64
	// OutputMbit is the result size to transmit SCN → WD.
	OutputMbit float64
	// LatencySensitive marks the latency class (paper's two QoS categories).
	LatencySensitive bool
	// Resource is the compute resource kind the task depends on.
	Resource ResourceKind
	// DurationSlots is the number of slots the task needs to execute
	// (0 and 1 both mean a single slot — the paper's base model). Values
	// above 1 activate the multi-slot future-work extension (paper
	// Sec. 3.3/6): the task must be re-selected in consecutive slots to
	// finish, and its full reward arrives only after complete execution.
	DurationSlots int
}

// Duration returns the effective execution length in slots (at least 1).
func (t *Task) Duration() int {
	if t.DurationSlots < 1 {
		return 1
	}
	return t.DurationSlots
}

// ContextDims is the default number of context dimensions D_b used by the
// paper's evaluation: input-size category, output-size category, resource
// kind. (Latency class folds into the reward process, not the context, in
// the headline experiments; WithLatencyContext extends the context to 4-D.)
const ContextDims = 3

// Context maps the task's meta information into Φ = [0,1]^{D_b}.
//
// Each raw attribute is min-max normalised into [0,1]; the hypercube
// partition (internal/hypercube) is what turns these continuous values into
// the paper's "categories" (h=3 reproduces "divide the input/output data
// size into three categories").
func (t *Task) Context() Context {
	in, out, res, _ := t.ContextCoords(false)
	return Context{in, out, res}
}

// ContextWithLatency is the 4-D context variant including the latency class.
func (t *Task) ContextWithLatency() Context {
	in, out, res, lat := t.ContextCoords(true)
	return Context{in, out, res, lat}
}

// ContextCoords returns the task's context coordinates as values: the
// normalised input and output sizes, the resource-kind coordinate and,
// when withLatency is set, the latency class (0 or 1) that only the 4-D
// context includes (lat is 0 otherwise, and the flag is not read). Every
// other form of the context is built from it, so they share one
// normalisation; hot loops that only need a task's hypercube cell read it
// without materialising a vector.
func (t *Task) ContextCoords(withLatency bool) (in, out, res, lat float64) {
	in = clampUnit((t.InputMbit - MinInputMbit) / (MaxInputMbit - MinInputMbit))
	out = clampUnit((t.OutputMbit - MinOutputMbit) / (MaxOutputMbit - MinOutputMbit))
	res = resourceCoord(t.Resource)
	if withLatency && t.LatencySensitive {
		lat = 1
	}
	return in, out, res, lat
}

// AppendContext appends the task's context coordinates to dst and returns
// the extended slice — the allocation-free form of Context for hot loops
// that pack many contexts into one backing array (the simulator's slot
// builder). withLatency appends the 4th (latency class) coordinate.
func (t *Task) AppendContext(dst []float64, withLatency bool) []float64 {
	in, out, res, lat := t.ContextCoords(withLatency)
	dst = append(dst, in, out, res)
	if withLatency {
		dst = append(dst, lat)
	}
	return dst
}

// clampUnit clamps a min-max scaled size into [0,1], so a malformed trace
// row cannot push a context outside Φ.
func clampUnit(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// resourceCoord spreads the discrete resource kinds across [0,1] at cell
// midpoints so that an h=3 partition separates them exactly.
func resourceCoord(r ResourceKind) float64 {
	return (float64(r) + 0.5) / float64(NumResourceKinds)
}

// Validate checks the task's raw fields against the model's bounds.
func (t *Task) Validate() error {
	if t.InputMbit < 0 || math.IsNaN(t.InputMbit) {
		return fmt.Errorf("task %d: negative input size %v", t.ID, t.InputMbit)
	}
	if t.OutputMbit < 0 || math.IsNaN(t.OutputMbit) {
		return fmt.Errorf("task %d: negative output size %v", t.ID, t.OutputMbit)
	}
	if t.Resource < 0 || int(t.Resource) >= NumResourceKinds {
		return fmt.Errorf("task %d: unknown resource kind %d", t.ID, t.Resource)
	}
	return nil
}

// String renders the task compactly for logs.
func (t *Task) String() string {
	lat := "lat-insensitive"
	if t.LatencySensitive {
		lat = "lat-sensitive"
	}
	return fmt.Sprintf("task{id=%d wd=%d in=%.1fMb out=%.1fMb %s %s}",
		t.ID, t.WD, t.InputMbit, t.OutputMbit, lat, t.Resource)
}
