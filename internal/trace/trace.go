// Package trace produces the per-slot workload of the simulation: the tasks
// arriving in each time slot and the coverage relation D_{m,t} (which SCNs
// can hear which tasks).
//
// The paper evaluates on "real world data" whose generative description it
// gives explicitly (Sec. 5): 30 SCNs; per-SCN task counts uniform in
// [35,100]; input sizes uniform in [5,20] Mbit; output sizes uniform in
// [1,4] Mbit; resource kind in {CPU, GPU, both}. We cannot obtain the
// original trace, so this package implements that generative model directly
// (Synthetic), a heavy-tailed variant for robustness studies (the paper's
// uniform sizes are optimistic; real cluster traces are lognormal), a
// geometry-driven generator where coverage emerges from WD mobility (Geo),
// and CSV import/export so users can replay genuinely real traces. See
// DESIGN.md §4 for the substitution rationale.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lfsc/internal/geo"
	"lfsc/internal/rng"
	"lfsc/internal/task"
)

// Slot is one time slot of workload.
type Slot struct {
	// Tasks are the offloading requests present in this slot.
	Tasks []*task.Task
	// Coverage[m] lists indices into Tasks visible to SCN m (D_{m,t}).
	Coverage [][]int
}

// NumTasks returns the number of distinct tasks in the slot.
func (s *Slot) NumTasks() int { return len(s.Tasks) }

// Validate checks structural invariants: indices in range, no duplicate
// task within one SCN's list.
func (s *Slot) Validate() error {
	for m, cov := range s.Coverage {
		seen := make(map[int]bool, len(cov))
		for _, i := range cov {
			if i < 0 || i >= len(s.Tasks) {
				return fmt.Errorf("trace: SCN %d covers out-of-range task %d", m, i)
			}
			if seen[i] {
				return fmt.Errorf("trace: SCN %d covers task %d twice", m, i)
			}
			seen[i] = true
		}
	}
	return nil
}

// Generator yields the workload slot by slot. Implementations must be
// deterministic given their construction-time RNG stream.
type Generator interface {
	// Next returns the workload of slot t (0-based). Callers invoke it with
	// strictly increasing t.
	Next(t int) *Slot
	// SCNs returns the number of SCNs the generator covers.
	SCNs() int
	// MaxPerSCN returns an upper bound on |D_{m,t}| (the paper's K_m),
	// which the learner needs for its parameter schedule.
	MaxPerSCN() int
}

// SyntheticConfig parameterises the paper's generative workload model.
type SyntheticConfig struct {
	// SCNs is the number of small cells M (paper: 30).
	SCNs int
	// MinTasks/MaxTasks bound the per-SCN task count (paper: 35–100).
	MinTasks, MaxTasks int
	// Overlap is the probability that a task is shared with the next SCN's
	// coverage ("a WD may be covered by multiple small cells").
	Overlap float64
	// Heavy switches input/output sizes to lognormal (cluster-trace-like)
	// instead of the paper's uniform distributions.
	Heavy bool
	// LatencySensitiveFrac is the fraction of latency-sensitive tasks.
	LatencySensitiveFrac float64
	// MultiSlotFrac is the fraction of tasks requiring multiple slots
	// (the future-work extension; 0 reproduces the paper's base model).
	MultiSlotFrac float64
	// MaxDuration bounds multi-slot task lengths (default 3 when zero).
	MaxDuration int
}

// DefaultSyntheticConfig is the paper's evaluation setting.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		SCNs:                 30,
		MinTasks:             35,
		MaxTasks:             100,
		Overlap:              0.3,
		LatencySensitiveFrac: 0.5,
	}
}

// Validate checks the configuration.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.SCNs <= 0:
		return fmt.Errorf("trace: SCNs must be positive, got %d", c.SCNs)
	case c.MinTasks <= 0 || c.MaxTasks < c.MinTasks:
		return fmt.Errorf("trace: invalid task count range [%d,%d]", c.MinTasks, c.MaxTasks)
	case c.Overlap < 0 || c.Overlap > 1:
		return fmt.Errorf("trace: overlap %v outside [0,1]", c.Overlap)
	case c.LatencySensitiveFrac < 0 || c.LatencySensitiveFrac > 1:
		return fmt.Errorf("trace: latency fraction %v outside [0,1]", c.LatencySensitiveFrac)
	case c.MultiSlotFrac < 0 || c.MultiSlotFrac > 1:
		return fmt.Errorf("trace: multi-slot fraction %v outside [0,1]", c.MultiSlotFrac)
	case c.MaxDuration < 0:
		return fmt.Errorf("trace: negative max duration %d", c.MaxDuration)
	}
	return nil
}

// Synthetic implements Generator with the paper's workload model.
type Synthetic struct {
	cfg    SyntheticConfig
	r      *rng.Stream
	nextID int64
	arena  *slotArena
}

// NewSynthetic constructs the generator; draws come from stream r. The
// pooled-slot arena (see NextInto) is sized once here from the worst-case
// slot SCNs×MaxTasks.
func NewSynthetic(cfg SyntheticConfig, r *rng.Stream) (*Synthetic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Synthetic{cfg: cfg, r: r, arena: newSlotArena(cfg.SCNs*cfg.MaxTasks, cfg.SCNs)}, nil
}

// SCNs implements Generator.
func (g *Synthetic) SCNs() int { return g.cfg.SCNs }

// MaxPerSCN implements Generator. With overlap, a cell can in the worst
// case receive every task of its ring predecessor on top of its own batch.
func (g *Synthetic) MaxPerSCN() int {
	if g.cfg.Overlap == 0 || g.cfg.SCNs == 1 {
		return g.cfg.MaxTasks
	}
	return 2 * g.cfg.MaxTasks
}

// Next implements Generator.
//
// Construction: each SCN m draws its own batch of fresh tasks with count in
// [MinTasks, MaxTasks]; then, with probability Overlap per task, the task is
// additionally made visible to the neighbouring SCN (m+1 mod M) — a ring of
// adjacent, overlapping cells. Counts stay within [MinTasks, MaxTasks(1+ov)].
func (g *Synthetic) Next(t int) *Slot {
	s := &Slot{Coverage: make([][]int, g.cfg.SCNs)}
	g.genInto(s, false)
	return s
}

// NextInto implements IntoGenerator: identical draws and slot content as
// Next, but every task and coverage row lives in the generator's arena. The
// slot is valid until the next NextInto call.
func (g *Synthetic) NextInto(t int, s *Slot) {
	g.arena.begin(s)
	g.genInto(s, true)
}

// genInto is the single generation path behind Next and NextInto; pooled
// selects arena-backed versus freshly allocated tasks. The RNG consumption
// is identical either way, which is what keeps pooled and allocating runs
// bit-identical.
func (g *Synthetic) genInto(s *Slot, pooled bool) {
	scns, minTasks, maxTasks, overlap := g.cfg.SCNs, g.cfg.MinTasks, g.cfg.MaxTasks, g.cfg.Overlap
	for m := 0; m < scns; m++ {
		n := g.r.IntRange(minTasks, maxTasks)
		// The ring peer m+1 mod M; with one SCN there is no peer to share with.
		peer := m + 1
		if peer == scns {
			peer = 0
		}
		own := s.Coverage[m]
		for k := 0; k < n; k++ {
			idx := len(s.Tasks)
			tk := g.allocTask(pooled)
			g.fillTask(tk)
			s.Tasks = append(s.Tasks, tk)
			own = append(own, idx)
			if peer != m && g.r.Bernoulli(overlap) {
				s.Coverage[peer] = append(s.Coverage[peer], idx)
			}
		}
		s.Coverage[m] = own
	}
}

func (g *Synthetic) allocTask(pooled bool) *task.Task {
	if pooled {
		return g.arena.nextTask()
	}
	return &task.Task{}
}

// fillTask populates a zeroed task, drawing its attributes in the model's
// canonical order (latency class, resource kind, duration, sizes).
func (g *Synthetic) fillTask(tk *task.Task) {
	g.nextID++
	tk.ID = g.nextID
	tk.WD = int(g.nextID) // synthetic mode: one WD per task
	tk.LatencySensitive = g.r.Bernoulli(g.cfg.LatencySensitiveFrac)
	tk.Resource = task.ResourceKind(g.r.Intn(task.NumResourceKinds))
	if g.cfg.MultiSlotFrac > 0 && g.r.Bernoulli(g.cfg.MultiSlotFrac) {
		maxD := g.cfg.MaxDuration
		if maxD < 2 {
			maxD = 3
		}
		tk.DurationSlots = g.r.IntRange(2, maxD)
	}
	if g.cfg.Heavy {
		tk.InputMbit = clampf(g.r.Lognormal(2.3, 0.5), task.MinInputMbit, task.MaxInputMbit)
		tk.OutputMbit = clampf(g.r.Lognormal(0.7, 0.5), task.MinOutputMbit, task.MaxOutputMbit)
	} else {
		tk.InputMbit = g.r.Uniform(task.MinInputMbit, task.MaxInputMbit)
		tk.OutputMbit = g.r.Uniform(task.MinOutputMbit, task.MaxOutputMbit)
	}
}

func clampf(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// GeoConfig parameterises the geometry-driven generator.
type GeoConfig struct {
	// Area is the service area.
	Area geo.Area
	// SCNPositions places the cells; use geo.PlaceGrid or PlacePoisson.
	SCNPositions []geo.Point
	// RadiusM is the coverage radius.
	RadiusM float64
	// WDs is the number of mobile devices.
	WDs int
	// TaskProb is the per-slot probability a WD submits a task.
	TaskProb float64
	// MinSpeed/MaxSpeed are waypoint speeds in meters per slot.
	MinSpeed, MaxSpeed float64
	// MaxPause is the maximum waypoint pause in slots.
	MaxPause int
	// LatencySensitiveFrac is the fraction of latency-sensitive tasks.
	LatencySensitiveFrac float64
}

// Validate checks the configuration.
func (c GeoConfig) Validate() error {
	switch {
	case c.Area.W <= 0 || c.Area.H <= 0:
		return fmt.Errorf("trace: invalid area %+v", c.Area)
	case len(c.SCNPositions) == 0:
		return fmt.Errorf("trace: no SCN positions")
	case c.RadiusM <= 0:
		return fmt.Errorf("trace: radius must be positive")
	case c.WDs <= 0:
		return fmt.Errorf("trace: WDs must be positive")
	case c.TaskProb < 0 || c.TaskProb > 1:
		return fmt.Errorf("trace: task probability %v outside [0,1]", c.TaskProb)
	case c.MinSpeed < 0 || c.MaxSpeed < c.MinSpeed:
		return fmt.Errorf("trace: invalid speed range [%v,%v]", c.MinSpeed, c.MaxSpeed)
	}
	return geo.Validate(c.Area, c.SCNPositions)
}

// Geo implements Generator with positions, mobility and circular coverage.
// Task→SCN visibility is geometric; a device in an overlap region is seen by
// several SCNs, exactly the paper's collaborative-offloading situation.
type Geo struct {
	cfg    GeoConfig
	r      *rng.Stream
	wds    []*geo.Waypoint
	nextID int64
	// LastPositions exposes WD positions of the most recent slot so callers
	// (e.g. a radio-model likelihood hook) can compute distances. After a
	// NextInto call they alias the generator's arena and are overwritten by
	// the following slot; after Next they are freshly allocated.
	LastPositions []geo.Point
	// LastWDs maps slot-task index to WD index (same aliasing rules).
	LastWDs []int
	// pooled-slot arena (see NextInto): tasks plus the per-slot position and
	// WD-index buffers, sized by the worst case of every WD submitting.
	arena  *slotArena
	posBuf []geo.Point
	wdBuf  []int
}

// NewGeo constructs the generator.
func NewGeo(cfg GeoConfig, r *rng.Stream) (*Geo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Geo{
		cfg:    cfg,
		r:      r,
		arena:  newSlotArena(cfg.WDs, len(cfg.SCNPositions)),
		posBuf: make([]geo.Point, 0, cfg.WDs),
		wdBuf:  make([]int, 0, cfg.WDs),
	}
	mob := r.Derive(100)
	for i := 0; i < cfg.WDs; i++ {
		g.wds = append(g.wds, geo.NewWaypoint(cfg.Area, cfg.MinSpeed, cfg.MaxSpeed, cfg.MaxPause, mob.Derive(uint64(i))))
	}
	return g, nil
}

// SCNs implements Generator.
func (g *Geo) SCNs() int { return len(g.cfg.SCNPositions) }

// MaxPerSCN implements Generator: in the worst case every WD stands inside
// one cell and submits.
func (g *Geo) MaxPerSCN() int { return g.cfg.WDs }

// SCNPositions returns the cell sites.
func (g *Geo) SCNPositions() []geo.Point { return g.cfg.SCNPositions }

// Next implements Generator: move devices, draw submissions, compute
// geometric coverage.
func (g *Geo) Next(t int) *Slot {
	s := &Slot{Coverage: make([][]int, g.SCNs())}
	g.genInto(t, s, false)
	return s
}

// NextInto implements IntoGenerator: identical draws and slot content as
// Next, backed by the generator's arena (tasks, coverage rows, position and
// WD-index buffers). The slot — and LastPositions/LastWDs — stay valid until
// the next NextInto call.
func (g *Geo) NextInto(t int, s *Slot) {
	g.arena.begin(s)
	g.genInto(t, s, true)
}

// genInto is the single generation path behind Next and NextInto. The RNG
// consumption is identical either way: the per-slot mobility stream is
// derived by label (Derive does not advance g.r), then submissions and task
// attributes are drawn from g.r in the model's canonical order.
func (g *Geo) genInto(t int, s *Slot, pooled bool) {
	var mob rng.Stream
	g.r.DeriveInto(uint64(200+t), &mob)
	for _, w := range g.wds {
		w.Step(g.cfg.Area, &mob)
	}
	var positions []geo.Point
	var wdIdx []int
	if pooled {
		positions = g.posBuf[:0]
		wdIdx = g.wdBuf[:0]
	}
	for i, w := range g.wds {
		if !g.r.Bernoulli(g.cfg.TaskProb) {
			continue
		}
		g.nextID++
		var tk *task.Task
		if pooled {
			tk = g.arena.nextTask()
		} else {
			tk = &task.Task{}
		}
		tk.ID = g.nextID
		tk.WD = i
		tk.InputMbit = g.r.Uniform(task.MinInputMbit, task.MaxInputMbit)
		tk.OutputMbit = g.r.Uniform(task.MinOutputMbit, task.MaxOutputMbit)
		tk.LatencySensitive = g.r.Bernoulli(g.cfg.LatencySensitiveFrac)
		tk.Resource = task.ResourceKind(g.r.Intn(task.NumResourceKinds))
		s.Tasks = append(s.Tasks, tk)
		positions = append(positions, w.Pos)
		wdIdx = append(wdIdx, i)
	}
	if pooled {
		s.Coverage = geo.CoverageInto(s.Coverage, g.cfg.SCNPositions, positions, g.cfg.RadiusM)
	} else {
		s.Coverage = geo.Coverage(g.cfg.SCNPositions, positions, g.cfg.RadiusM)
	}
	g.LastPositions = positions
	g.LastWDs = wdIdx
}

// --- CSV trace I/O -------------------------------------------------------

// csvHeader is the column layout of the on-disk trace format.
const csvHeader = "slot,task_id,wd,input_mbit,output_mbit,latency_sensitive,resource,duration,scns"

// WriteCSV serialises slots to w in the package trace format. The scns
// column is a ';'-separated list of covering SCN indices.
func WriteCSV(w io.Writer, slots []*Slot) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, csvHeader); err != nil {
		return err
	}
	for slot, s := range slots {
		// Invert coverage: task index → covering SCNs.
		byTask := make([][]int, len(s.Tasks))
		for m, cov := range s.Coverage {
			for _, i := range cov {
				byTask[i] = append(byTask[i], m)
			}
		}
		for i, tk := range s.Tasks {
			scns := make([]string, len(byTask[i]))
			for j, m := range byTask[i] {
				scns[j] = strconv.Itoa(m)
			}
			if _, err := fmt.Fprintf(bw, "%d,%d,%d,%.6g,%.6g,%t,%s,%d,%s\n",
				slot, tk.ID, tk.WD, tk.InputMbit, tk.OutputMbit,
				tk.LatencySensitive, tk.Resource, tk.Duration(),
				strings.Join(scns, ";")); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace. numSCNs fixes the coverage arity; rows referencing
// SCNs outside [0,numSCNs) are an error.
func ReadCSV(r io.Reader, numSCNs int) ([]*Slot, error) {
	if numSCNs <= 0 {
		return nil, fmt.Errorf("trace: numSCNs must be positive")
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	if got := strings.TrimSpace(sc.Text()); got != csvHeader {
		return nil, fmt.Errorf("trace: bad header %q", got)
	}
	var slots []*Slot
	line := 1
	for sc.Scan() {
		line++
		row := strings.TrimSpace(sc.Text())
		if row == "" {
			continue
		}
		fields := strings.Split(row, ",")
		if len(fields) != 9 {
			return nil, fmt.Errorf("trace: line %d has %d fields, want 9", line, len(fields))
		}
		slot, err := strconv.Atoi(fields[0])
		if err != nil || slot < 0 {
			return nil, fmt.Errorf("trace: line %d bad slot %q", line, fields[0])
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d bad task id: %v", line, err)
		}
		wd, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d bad wd: %v", line, err)
		}
		in, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d bad input size: %v", line, err)
		}
		out, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d bad output size: %v", line, err)
		}
		lat, err := strconv.ParseBool(fields[5])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d bad latency flag: %v", line, err)
		}
		res, err := task.ParseResourceKind(fields[6])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		dur, err := strconv.Atoi(fields[7])
		if err != nil || dur < 1 {
			return nil, fmt.Errorf("trace: line %d bad duration %q", line, fields[7])
		}
		tk := &task.Task{ID: id, WD: wd, InputMbit: in, OutputMbit: out,
			LatencySensitive: lat, Resource: res, DurationSlots: dur}
		if err := tk.Validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		for len(slots) <= slot {
			slots = append(slots, &Slot{Coverage: make([][]int, numSCNs)})
		}
		s := slots[slot]
		idx := len(s.Tasks)
		s.Tasks = append(s.Tasks, tk)
		if fields[8] != "" {
			for _, ms := range strings.Split(fields[8], ";") {
				m, err := strconv.Atoi(ms)
				if err != nil || m < 0 || m >= numSCNs {
					return nil, fmt.Errorf("trace: line %d bad SCN ref %q", line, ms)
				}
				s.Coverage[m] = append(s.Coverage[m], idx)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, s := range slots {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("trace: slot %d: %v", i, err)
		}
	}
	return slots, nil
}

// Replay implements Generator over recorded slots, cycling when the
// simulation horizon exceeds the trace length.
type Replay struct {
	slots []*Slot
	scns  int
	max   int
}

// NewReplay wraps recorded slots as a Generator.
func NewReplay(slots []*Slot, numSCNs int) (*Replay, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("trace: empty replay")
	}
	max := 0
	for _, s := range slots {
		if len(s.Coverage) != numSCNs {
			return nil, fmt.Errorf("trace: slot has %d SCNs, want %d", len(s.Coverage), numSCNs)
		}
		for _, cov := range s.Coverage {
			if len(cov) > max {
				max = len(cov)
			}
		}
	}
	return &Replay{slots: slots, scns: numSCNs, max: max}, nil
}

// Next implements Generator.
func (r *Replay) Next(t int) *Slot { return r.slots[t%len(r.slots)] }

// SCNs implements Generator.
func (r *Replay) SCNs() int { return r.scns }

// MaxPerSCN implements Generator.
func (r *Replay) MaxPerSCN() int { return r.max }

// Len returns the number of recorded slots.
func (r *Replay) Len() int { return len(r.slots) }
