package scenario

import (
	"fmt"
	"math"
	"slices"

	"lfsc/internal/rng"
)

// streamLabel is the rng label the scenario engine derives its root
// stream from. The simulator and serving tier consume labels 1..4 of
// the master stream (workload / environment / policy / realization);
// label 5 is reserved here. Derive is pure, so building a timeline
// never advances any of those streams.
const streamLabel = 5

// View is one slot's cross-section of a timeline, handed to view
// builders each slot. All slices alias the timeline's immutable
// backing arrays — filling a View allocates nothing and concurrent
// readers need no synchronization. Caps/AlphaMul/BetaMul are nil when
// the scenario has no capacity/budget dynamics, which keeps the static
// fast paths bit-identical.
type View struct {
	Slot     int
	Up       []bool    // per-SCN availability
	Caps     []int     // per-SCN effective capacity; nil = nominal
	AlphaMul []float64 // per-SCN α multiplier; nil = 1
	BetaMul  []float64 // per-SCN β multiplier; nil = 1
	UpCount  int       // number of true entries in Up
}

// Timeline is a fully materialized scenario: every slot's availability,
// capacity and budget rows are computed at Build time, so ViewInto can
// serve any slot in O(1) with no allocation (random access is what
// checkpoint resume needs) and concurrent readers need no
// synchronization. Rows are interned by runs: a slot whose row equals
// the previous slot's stores no row of its own, only the index of the
// stored row it shares, so memory is O(slots + row changes × SCNs)
// rather than O(slots × SCNs). Availability and capacity rows change
// only at events and capacity steps; a budget cycle's multipliers move
// every slot, so budget rows are stored about once per slot. For
// scenarios/churn.scn on the paper topology (30 SCNs × 10⁴ slots) Build
// takes ~4 ms, allocates 0.63 MB in ~60 allocations and keeps 0.41 MB,
// where one array entry per (slot, SCN) took ~16 ms, 8.4 MB in ~10⁴
// allocations and kept 2.95 MB; at 300 SCNs × 4×10⁴ slots (the same
// config, SCN sets scaled tenfold) it takes ~180 ms, allocates 26 MB and
// keeps 9.4 MB, against ~470 ms, 337 MB and 109 MB (DESIGN.md §13).
// Slots beyond the horizon wrap (t mod slots), so a daemon outliving
// the configured horizon sees the cycle repeat rather than a cliff.
type Timeline struct {
	scns     int
	slots    int
	capacity int
	digest   string

	slot    []slotRec
	upRows  []bool    // interned per-SCN availability rows
	capRows []int     // interned per-SCN capacity rows; nil when no diurnal events
	mulRows []float64 // interned α then β multiplier rows (2·scns each); nil when no budget events
}

// slotRec is one slot's entry: the indices of its interned rows, its up
// count, and the cumulative event counts through the end of the slot,
// for the serving tier's counters: sleeps = entries into a sleep window,
// fails = churn failures + blockage hits, rejoins = recoveries from
// churn/blockage (sleep wake-ups are scheduled, not rejoins).
type slotRec struct {
	up, caps, mul          int32 // row indices into upRows, capRows, mulRows
	upCount                int32
	sleeps, fails, rejoins uint64
}

// Build materializes cfg over a topology of scns SCNs and a horizon of
// slots slots. capacity is the nominal per-SCN capacity (required > 0
// when the config has diurnal events; otherwise may be 0). seed is the
// run's master seed — the same one handed to the simulator or daemon.
//
// Build walks the slots once. Each availability source keeps its own
// per-SCN mask for the current slot (transitions are counted per
// source, so overlapping sources each report their own events) and the
// masks OR into the slot's up row; capacity and budget cycles multiply
// into one-slot multiplier rows in event order.
func Build(cfg Config, scns, slots, capacity int, seed uint64) (*Timeline, error) {
	if err := cfg.Validate(scns); err != nil {
		return nil, err
	}
	if slots <= 0 {
		return nil, fmt.Errorf("scenario: horizon %d <= 0", slots)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("scenario: capacity %d < 0", capacity)
	}
	var root rng.Stream
	rng.New(seed).DeriveInto(streamLabel, &root)
	var (
		srcs           []availability
		cycles         []cycle
		capMul, mulRow []float64 // this slot's capacity multipliers; α then β multipliers
	)
	for i := range cfg.Events {
		ev := &cfg.Events[i]
		members := ev.SCNs.members(scns)
		switch ev.Kind {
		case KindSleep, KindChurn, KindBlockage:
			srcs = append(srcs, newAvailability(ev, members, &root, uint64(i)))
		case KindDiurnal:
			if capacity <= 0 {
				return nil, fmt.Errorf("scenario: diurnal event %d needs a positive nominal capacity", i)
			}
			if capMul == nil {
				capMul = make([]float64, scns)
			}
			cycles = append(cycles, cycle{ev, ev.MinCap, members, capMul})
		case KindBudget:
			if mulRow == nil {
				mulRow = make([]float64, 2*scns)
			}
			if ev.AlphaMin < 1 {
				cycles = append(cycles, cycle{ev, ev.AlphaMin, members, mulRow[:scns]})
			}
			if ev.BetaMin < 1 {
				cycles = append(cycles, cycle{ev, ev.BetaMin, members, mulRow[scns:]})
			}
		}
	}

	tl := &Timeline{
		scns:     scns,
		slots:    slots,
		capacity: capacity,
		digest:   digest(&cfg, scns, slots, capacity, seed),
		slot:     make([]slotRec, slots),
	}
	up := make([]bool, scns)
	var capRow []int
	if capMul != nil {
		capRow = make([]int, scns)
	}
	if mulRow != nil {
		// A budget cycle moves its multipliers every slot, so nearly
		// every slot stores a row of its own.
		tl.mulRows = make([]float64, 0, slots*len(mulRow))
	}
	for t := 0; t < slots; t++ {
		rec := &tl.slot[t]
		changed := t == 0
		if t > 0 {
			*rec = tl.slot[t-1]
		}
		for i := range srcs {
			if srcs[i].step(t, slots, rec) {
				changed = true
			}
		}
		if changed {
			for m := range up {
				up[m] = true
			}
			for i := range srcs {
				srcs[i].mask(up)
			}
			n := int32(0)
			for _, u := range up {
				if u {
					n++
				}
			}
			rec.upCount = n
			rec.up = intern(&tl.upRows, up)
		}

		for m := range capMul {
			capMul[m] = 1
		}
		for m := range mulRow {
			mulRow[m] = 1
		}
		for i := range cycles {
			cycles[i].apply(t)
		}
		if capRow != nil {
			c := 0
			for m, mul := range capMul {
				if m == 0 || mul != capMul[m-1] { // SCNs under the same cycles round once
					c = min(max(int(math.Round(mul*float64(capacity))), 1), capacity)
				}
				capRow[m] = c
			}
			rec.caps = intern(&tl.capRows, capRow)
		}
		if mulRow != nil {
			rec.mul = intern(&tl.mulRows, mulRow)
		}
	}
	tl.upRows, tl.capRows = slices.Clone(tl.upRows), slices.Clone(tl.capRows)
	return tl, nil
}

// intern stores row at the end of rows unless it equals the row stored
// last, and returns the index of the stored row that equals it. Build
// interns each slot's row in slot order, so a run of equal rows is
// stored once. The store doubles when full, so its allocation count
// grows with the log of the row changes; Build copies it to its length
// when done.
func intern[E comparable](rows *[]E, row []E) int32 {
	n := len(row)
	last := len(*rows) - n
	if last < 0 || !slices.Equal((*rows)[last:], row) {
		if cap(*rows)-len(*rows) < n {
			*rows = slices.Grow(*rows, len(*rows)+n)
		}
		*rows = append(*rows, row...)
		last += n
	}
	return int32(last / n)
}

// availability is one sleep, churn or blockage source's state while
// Build walks the slots.
type availability struct {
	ev      *Event
	members []int
	down    []bool       // per member: the source's mask at the current slot
	until   []int        // per member: churn's next phase start, blockage's outage end
	streams []rng.Stream // churn: one stream per member
	st      rng.Stream   // the event's stream: blockage draws from it, churn derives from it
	starts  int          // blockage: burst placements within the set
}

func newAvailability(ev *Event, members []int, root *rng.Stream, label uint64) availability {
	a := availability{
		ev:      ev,
		members: members,
		down:    make([]bool, len(members)),
		until:   make([]int, len(members)),
	}
	root.DeriveInto(label, &a.st)
	switch ev.Kind {
	case KindChurn:
		// Each SCN walks its renewal process from its own derived
		// stream, so the result is independent of SCN iteration order
		// and of every other event source.
		a.streams = make([]rng.Stream, len(members))
		for k, m := range members {
			a.st.DeriveInto(uint64(m), &a.streams[k])
		}
	case KindBlockage:
		a.starts = len(members) - ev.Width + 1
		if a.starts < 1 {
			a.starts = 1 // narrower set than the burst width: whole set goes down
		}
	}
	return a
}

// step advances the source to slot t, counts its transitions into rec
// and reports whether any member changed state.
func (a *availability) step(t, slots int, rec *slotRec) (changed bool) {
	ev := a.ev
	switch ev.Kind {
	case KindSleep:
		// Down for Duration slots of every Period from Offset on.
		down := t >= ev.Offset && (t-ev.Offset)%ev.Period < ev.Duration
		for k := range a.members {
			changed = a.set(k, down, rec) || changed
		}
	case KindChurn:
		// Alternating up/down phases, each 1 + an exponential draw
		// long; the first phase is up.
		for k := range a.members {
			if t < a.until[k] {
				continue
			}
			down := t > 0 && !a.down[k]
			mean := ev.MeanUp
			if down {
				mean = ev.MeanDown
			}
			draw := a.streams[k].Exponential(1 / mean)
			if draw > float64(slots) {
				draw = float64(slots) // a phase outliving the horizon is just "rest of horizon"
			}
			a.until[k] = t + 1 + int(draw)
			changed = a.set(k, down, rec) || changed
		}
	case KindBlockage:
		// One Bernoulli per slot, plus one placement draw per burst,
		// from a single sequential stream: a burst takes out a
		// contiguous run of Width SCNs within the set for Duration
		// slots, and an overlapping later burst extends the outage.
		if a.st.Bernoulli(ev.Rate) {
			lo := a.st.Intn(a.starts)
			for k := lo; k < lo+ev.Width && k < len(a.members); k++ {
				a.until[k] = t + ev.Duration
			}
		}
		for k := range a.members {
			changed = a.set(k, t < a.until[k], rec) || changed
		}
	}
	return changed
}

// mask clears the up entries of the SCNs the source holds down.
func (a *availability) mask(up []bool) {
	for k, m := range a.members {
		if a.down[k] {
			up[m] = false
		}
	}
}

// set moves member k to down, counting a transition the way the
// source's kind reports it, and reports whether the member changed.
func (a *availability) set(k int, down bool, rec *slotRec) bool {
	if down == a.down[k] {
		return false
	}
	a.down[k] = down
	switch {
	case down && a.ev.Kind == KindSleep:
		rec.sleeps++
	case down:
		rec.fails++
	case a.ev.Kind != KindSleep:
		rec.rejoins++
	}
	return true
}

// cycle is one sinusoidal multiplier source — a diurnal capacity cycle
// or one of a budget event's α/β cycles — and the slot row it
// multiplies into.
type cycle struct {
	ev      *Event
	min     float64
	members []int
	dst     []float64
}

// apply multiplies the cycle's value at slot t — 1 at the crest (t =
// Offset mod Period), min at the trough — into its members' entries.
func (c *cycle) apply(t int) {
	phase := 2 * math.Pi * float64(t-c.ev.Offset) / float64(c.ev.Period)
	mul := c.min + (1-c.min)*0.5*(1+math.Cos(phase))
	for _, m := range c.members {
		c.dst[m] *= mul
	}
}

// wrap maps an arbitrary slot index onto the materialized horizon.
func (tl *Timeline) wrap(t int) int {
	if t >= tl.slots {
		t %= tl.slots
	}
	if t < 0 {
		t = 0
	}
	return t
}

// ViewInto fills v with slot t's cross-section. The slices alias the
// timeline's interned rows (read-only); no allocation ever.
func (tl *Timeline) ViewInto(t int, v *View) {
	t = tl.wrap(t)
	rec := &tl.slot[t]
	n := tl.scns
	v.Slot = t
	r := int(rec.up) * n
	v.Up = tl.upRows[r : r+n]
	v.UpCount = int(rec.upCount)
	if tl.capRows != nil {
		r = int(rec.caps) * n
		v.Caps = tl.capRows[r : r+n]
	} else {
		v.Caps = nil
	}
	if tl.mulRows != nil {
		r = int(rec.mul) * 2 * n
		v.AlphaMul = tl.mulRows[r : r+n]
		v.BetaMul = tl.mulRows[r+n : r+2*n]
	} else {
		v.AlphaMul, v.BetaMul = nil, nil
	}
}

// SCNs returns the topology size the timeline was built for.
func (tl *Timeline) SCNs() int { return tl.scns }

// Slots returns the materialized horizon.
func (tl *Timeline) Slots() int { return tl.slots }

// Digest fingerprints (config, scns, slots, capacity, seed). Two
// timelines with equal digests are bit-identical; the serving tier
// stores it in checkpoints so a resumed daemon provably replays the
// same scenario, and lfscload compares it against the daemon's.
func (tl *Timeline) Digest() string { return tl.digest }

// UpCount returns the number of up SCNs at slot t.
func (tl *Timeline) UpCount(t int) int { return int(tl.slot[tl.wrap(t)].upCount) }

// EventTotals returns the cumulative sleep/fail/rejoin event counts
// through the end of slot t. Totals are monotone in t up to the
// horizon and restart from the full-cycle totals when t wraps.
func (tl *Timeline) EventTotals(t int) (sleeps, fails, rejoins uint64) {
	rec := &tl.slot[tl.wrap(t)]
	return rec.sleeps, rec.fails, rec.rejoins
}

// CumEventTotals returns the cumulative sleep/fail/rejoin totals through
// the end of absolute slot t, accounting for wrap-around: every complete
// cycle before t contributes its full-cycle totals, so the counts are
// monotone in t (the serving tier exports them as Prometheus counters).
func (tl *Timeline) CumEventTotals(t int) (sleeps, fails, rejoins uint64) {
	if t < 0 {
		t = 0
	}
	rec, last := &tl.slot[t%tl.slots], &tl.slot[tl.slots-1]
	sleeps, fails, rejoins = rec.sleeps, rec.fails, rec.rejoins
	if cycles := uint64(t / tl.slots); cycles > 0 {
		sleeps += cycles * last.sleeps
		fails += cycles * last.fails
		rejoins += cycles * last.rejoins
	}
	return sleeps, fails, rejoins
}

// AllUp reports whether the timeline never masks an SCN and carries no
// capacity or budget dynamics — i.e. it is semantically the static
// topology.
func (tl *Timeline) AllUp() bool {
	return !slices.Contains(tl.upRows, false) && tl.capRows == nil && tl.mulRows == nil
}

func (tl *Timeline) String() string {
	s, f, r := tl.EventTotals(tl.slots - 1)
	return fmt.Sprintf("scenario %s: %d SCNs × %d slots, %d sleeps, %d fails, %d rejoins",
		tl.digest, tl.scns, tl.slots, s, f, r)
}
