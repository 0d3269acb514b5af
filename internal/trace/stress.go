package trace

import (
	"fmt"
	"math"

	"lfsc/internal/rng"
	"lfsc/internal/task"
)

// StressKind selects a stress pattern for the Stress generator.
type StressKind int

const (
	// Diurnal modulates per-SCN load sinusoidally over a configurable
	// period — the day/night cycle of a real deployment.
	Diurnal StressKind = iota
	// Hotspot concentrates load on a rotating subset of SCNs (stadium /
	// commute patterns): hot cells run at MaxTasks, cold cells at MinTasks.
	Hotspot
	// FlashCrowd injects sudden bursts: load is normal except during
	// randomly placed burst windows where every SCN jumps to MaxTasks and
	// contexts collapse into a narrow band (everyone streams the same
	// event).
	FlashCrowd
)

// String implements fmt.Stringer.
func (k StressKind) String() string {
	switch k {
	case Diurnal:
		return "diurnal"
	case Hotspot:
		return "hotspot"
	case FlashCrowd:
		return "flashcrowd"
	default:
		return fmt.Sprintf("stress(%d)", int(k))
	}
}

// StressConfig parameterises the stress generator.
type StressConfig struct {
	// Base is the underlying synthetic model (counts, sizes, overlap).
	Base SyntheticConfig
	// Kind selects the stress pattern.
	Kind StressKind
	// PeriodSlots is the diurnal period / hotspot rotation interval /
	// expected gap between flash crowds (default 500 when zero).
	PeriodSlots int
	// HotFraction is the fraction of SCNs that are hot under Hotspot
	// (default 0.2 when zero).
	HotFraction float64
	// BurstSlots is the flash-crowd burst length (default 50 when zero).
	BurstSlots int
}

func (c StressConfig) period() int {
	if c.PeriodSlots <= 0 {
		return 500
	}
	return c.PeriodSlots
}

func (c StressConfig) hotFraction() float64 {
	if c.HotFraction <= 0 {
		return 0.2
	}
	return c.HotFraction
}

func (c StressConfig) burst() int {
	if c.BurstSlots <= 0 {
		return 50
	}
	return c.BurstSlots
}

// Validate checks the configuration.
func (c StressConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.HotFraction < 0 || c.HotFraction > 1 {
		return fmt.Errorf("trace: hot fraction %v outside [0,1]", c.HotFraction)
	}
	if c.PeriodSlots < 0 || c.BurstSlots < 0 {
		return fmt.Errorf("trace: negative stress interval")
	}
	return nil
}

// Stress is a Generator producing time-varying, adversarial load patterns
// on top of the paper's synthetic model. It exists to probe the robustness
// the paper's stationarity assumptions paper over: LFSC's per-cell workload
// share moves, so the weight/multiplier equilibria must track it.
type Stress struct {
	cfg       StressConfig
	r         *rng.Stream
	inner     *Synthetic
	burstFrom int   // next flash-crowd start
	counts    []int // per-SCN target counts, reused across slots
	arena     *slotArena
}

// NewStress builds the generator.
func NewStress(cfg StressConfig, r *rng.Stream) (*Stress, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := NewSynthetic(cfg.Base, r.Derive(1))
	if err != nil {
		return nil, err
	}
	s := &Stress{
		cfg: cfg, r: r.Derive(2), inner: inner,
		counts: make([]int, cfg.Base.SCNs),
		arena:  newSlotArena(cfg.Base.SCNs*cfg.Base.MaxTasks, cfg.Base.SCNs),
	}
	s.burstFrom = s.cfg.period() + s.r.Intn(s.cfg.period())
	return s, nil
}

// SCNs implements Generator.
func (s *Stress) SCNs() int { return s.cfg.Base.SCNs }

// MaxPerSCN implements Generator.
func (s *Stress) MaxPerSCN() int { return s.inner.MaxPerSCN() }

// Next implements Generator.
func (s *Stress) Next(t int) *Slot {
	if s.cfg.Kind == Diurnal || s.cfg.Kind == Hotspot || s.cfg.Kind == FlashCrowd {
		out := &Slot{Coverage: make([][]int, s.cfg.Base.SCNs)}
		s.genInto(t, out, false)
		return out
	}
	return s.inner.Next(t)
}

// NextInto implements IntoGenerator: identical draws and slot content as
// Next, backed by the generator's arena (valid until the next NextInto).
func (s *Stress) NextInto(t int, out *Slot) {
	if s.cfg.Kind == Diurnal || s.cfg.Kind == Hotspot || s.cfg.Kind == FlashCrowd {
		s.arena.begin(out)
		s.genInto(t, out, true)
		return
	}
	s.inner.NextInto(t, out)
}

// genInto computes the per-SCN target counts for slot t and generates the
// slot; pooled selects arena-backed versus freshly allocated tasks.
func (s *Stress) genInto(t int, out *Slot, pooled bool) {
	var narrow bool
	switch s.cfg.Kind {
	case Diurnal:
		s.diurnalCounts(t)
	case Hotspot:
		s.hotspotCounts(t)
	case FlashCrowd:
		narrow = s.flashCrowdCounts(t)
	}
	for m := 0; m < s.cfg.Base.SCNs; m++ {
		n := s.counts[m]
		for k := 0; k < n; k++ {
			idx := len(out.Tasks)
			var tk *task.Task
			if pooled {
				tk = s.arena.nextTask()
			} else {
				tk = &task.Task{}
			}
			s.inner.fillTask(tk)
			if narrow {
				// Flash crowd: everyone requests near-identical work.
				tk.InputMbit = task.MinInputMbit + 0.1*(task.MaxInputMbit-task.MinInputMbit)*s.r.Float64()
				tk.OutputMbit = task.MinOutputMbit + 0.1*(task.MaxOutputMbit-task.MinOutputMbit)*s.r.Float64()
				tk.Resource = task.GPU
			}
			out.Tasks = append(out.Tasks, tk)
			out.Coverage[m] = append(out.Coverage[m], idx)
			if s.cfg.Base.SCNs > 1 && s.r.Bernoulli(s.cfg.Base.Overlap) {
				peer := (m + 1) % s.cfg.Base.SCNs
				out.Coverage[peer] = append(out.Coverage[peer], idx)
			}
		}
	}
}

func (s *Stress) diurnalCounts(t int) {
	period := float64(s.cfg.period())
	for m := range s.counts {
		// Phase-shifted sinusoid per SCN: cells peak at different times.
		phase := 2 * math.Pi * (float64(t)/period + float64(m)/float64(len(s.counts)))
		level := 0.5 + 0.5*math.Sin(phase)
		lo, hi := s.cfg.Base.MinTasks, s.cfg.Base.MaxTasks
		s.counts[m] = lo + int(level*float64(hi-lo))
	}
}

func (s *Stress) hotspotCounts(t int) {
	rotation := (t / s.cfg.period()) % s.cfg.Base.SCNs
	hot := int(math.Ceil(s.cfg.hotFraction() * float64(s.cfg.Base.SCNs)))
	for m := range s.counts {
		// The hot window [rotation, rotation+hot) wraps around the ring.
		d := (m - rotation + s.cfg.Base.SCNs) % s.cfg.Base.SCNs
		if d < hot {
			s.counts[m] = s.cfg.Base.MaxTasks
		} else {
			s.counts[m] = s.cfg.Base.MinTasks
		}
	}
}

func (s *Stress) flashCrowdCounts(t int) (inBurst bool) {
	inBurst = t >= s.burstFrom && t < s.burstFrom+s.cfg.burst()
	if t >= s.burstFrom+s.cfg.burst() {
		s.burstFrom = t + s.cfg.period()/2 + s.r.Intn(s.cfg.period())
	}
	for m := range s.counts {
		if inBurst {
			s.counts[m] = s.cfg.Base.MaxTasks
		} else {
			s.counts[m] = s.cfg.Base.MinTasks +
				s.r.Intn(s.cfg.Base.MaxTasks-s.cfg.Base.MinTasks+1)
		}
	}
	return inBurst
}
