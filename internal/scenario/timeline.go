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
// takes ~1.2 ms, allocates 0.64 MB in 57 allocations and keeps 0.41 MB;
// stepping every member and every row entry on every slot took ~3.3 ms,
// and one array entry per (slot, SCN) took ~16 ms, 8.4 MB in ~10⁴
// allocations and kept 2.95 MB. At 300 SCNs × 4×10⁴ slots (the same
// config, SCN sets scaled tenfold) it takes ~25 ms, allocates 26 MB and
// keeps 9.4 MB, against ~130 ms stepping every slot and ~470 ms, 337 MB
// and 109 MB with per-(slot, SCN) arrays (DESIGN.md §13).
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
// Build walks the slots once and works only where the timeline changes.
// Each availability source keeps its members' masks and the first slot
// at which one of them can change (sleep: the next window edge; churn:
// the earliest phase end; blockage: the earliest outage end, though it
// still draws for a burst every slot), and touches its members only
// then. Transitions are counted per source, so overlapping sources each
// report their own events, and each moves a per-SCN count of the sources
// holding that SCN down; the up row is stored again only in a slot where
// a count crossed zero. Each capacity or budget cycle is evaluated once
// per slot and multiplied once per group of row entries it covers (see
// groupEntries), so every entry gets the product of the same factors in
// the same order as multiplying each entry would give; capacity is
// rounded once per group, and its row rebuilt only when a group's
// rounded value steps.
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
		hasCap, hasMul bool
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
			hasCap = true
			cycles = append(cycles, cycle{ev: ev, min: ev.MinCap, members: members})
		case KindBudget:
			hasMul = true
			if ev.AlphaMin < 1 {
				cycles = append(cycles, cycle{ev: ev, min: ev.AlphaMin, members: members, base: scns})
			}
			if ev.BetaMin < 1 {
				cycles = append(cycles, cycle{ev: ev, min: ev.BetaMin, members: members, base: 2 * scns})
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
	r := upRow{held: make([]int32, scns), up: make([]bool, scns), n: int32(scns)}
	for m := range r.up {
		r.up[m] = true
	}
	var (
		groupOf []int32 // per row entry: capacity, then α, then β, scns each
		groups  []group
		capRow  []int
		mulRow  []float64 // α then β multipliers
	)
	if hasCap || hasMul {
		groupOf = make([]int32, 3*scns)
		groups = groupEntries(cycles, groupOf)
	}
	if hasCap {
		capRow = make([]int, scns)
		for _, g := range groupOf[:scns] {
			groups[g].caps = true
		}
	}
	if hasMul {
		mulRow = make([]float64, 2*scns)
		// A budget cycle moves its multipliers every slot, so nearly
		// every slot stores a row of its own.
		tl.mulRows = make([]float64, 0, slots*len(mulRow))
	}
	for t := 0; t < slots; t++ {
		rec := &tl.slot[t]
		if t > 0 {
			*rec = tl.slot[t-1]
		}
		r.rec = rec
		for i := range srcs {
			srcs[i].step(t, slots, &r)
		}
		if t == 0 || r.moved {
			rec.upCount = r.n
			rec.up = intern(&tl.upRows, r.up)
			r.moved = false
		}
		if groups == nil {
			continue
		}

		for i := range cycles {
			cycles[i].mul = cycles[i].at(t)
		}
		stepped := false
		for g := range groups {
			gr := &groups[g]
			if g > 0 {
				gr.prod = groups[gr.parent].prod * cycles[gr.cycle].mul
			}
			if gr.caps {
				c := min(max(int(math.Round(gr.prod*float64(capacity))), 1), capacity)
				stepped = stepped || c != gr.cap
				gr.cap = c
			}
		}
		if stepped {
			for m := range capRow {
				capRow[m] = groups[groupOf[m]].cap
			}
			rec.caps = intern(&tl.capRows, capRow)
		}
		if mulRow != nil {
			for k := range mulRow {
				mulRow[k] = groups[groupOf[scns+k]].prod
			}
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

// upRow is the availability row while Build walks the slots: per SCN the
// number of sources holding it down, the up row those counts give, and
// the slot record transitions are counted into.
type upRow struct {
	held  []int32
	up    []bool
	n     int32 // up entries
	moved bool  // an up entry flipped since the row was last stored
	rec   *slotRec
}

// availability is one sleep, churn or blockage source's state while
// Build walks the slots.
type availability struct {
	ev      *Event
	members []member
	next    int        // no member changes state before this slot
	st      rng.Stream // the event's stream: blockage draws from it, churn derives from it
	starts  int        // blockage: burst placements within the set
}

// member is one SCN's state in an availability source.
type member struct {
	scn   int
	down  bool       // the source's mask at the current slot
	until int        // churn's next phase start, blockage's outage end
	st    rng.Stream // churn: the SCN's own stream
}

func newAvailability(ev *Event, scns []int, root *rng.Stream, label uint64) availability {
	a := availability{ev: ev, members: make([]member, len(scns))}
	root.DeriveInto(label, &a.st)
	for k, m := range scns {
		a.members[k].scn = m
	}
	switch ev.Kind {
	case KindChurn:
		// Each SCN walks its renewal process from its own derived
		// stream, so the result is independent of SCN iteration order
		// and of every other event source.
		for k, m := range scns {
			a.st.DeriveInto(uint64(m), &a.members[k].st)
		}
	case KindBlockage:
		a.starts = len(scns) - ev.Width + 1
		if a.starts < 1 {
			a.starts = 1 // narrower set than the burst width: whole set goes down
		}
		a.next = math.MaxInt // no member is down
	}
	return a
}

// step advances the source to slot t, counting its transitions into r.
// A slot before the source's next change costs a blockage source its
// burst draw and the others nothing. next only ever errs early (an
// overlapping burst extends an outage, a sum overflows), which costs a
// pass over the members and changes no state.
func (a *availability) step(t, slots int, r *upRow) {
	ev := a.ev
	switch ev.Kind {
	case KindSleep:
		// Down for Duration slots of every Period from Offset on: the
		// members move together, at the window edges.
		if t < a.next {
			return
		}
		down := t >= ev.Offset && (t-ev.Offset)%ev.Period < ev.Duration
		for k := range a.members {
			a.set(&a.members[k], down, r)
		}
		switch start := t - (t-ev.Offset)%ev.Period; {
		case t < ev.Offset:
			a.next = ev.Offset
		case down:
			a.next = start + ev.Duration
		default:
			a.next = start + ev.Period
		}
	case KindChurn:
		// Alternating up/down phases, each 1 + an exponential draw
		// long; the first phase is up. A member draws when its phase
		// ends.
		if t < a.next {
			return
		}
		next := math.MaxInt
		for k := range a.members {
			mb := &a.members[k]
			if t >= mb.until {
				down := t > 0 && !mb.down
				mean := ev.MeanUp
				if down {
					mean = ev.MeanDown
				}
				draw := mb.st.Exponential(1 / mean)
				if draw > float64(slots) {
					draw = float64(slots) // a phase outliving the horizon is just "rest of horizon"
				}
				mb.until = t + 1 + int(draw)
				a.set(mb, down, r)
			}
			next = min(next, mb.until)
		}
		a.next = next
	case KindBlockage:
		// One Bernoulli per slot, plus one placement draw per burst,
		// from a single sequential stream: a burst takes out a
		// contiguous run of Width SCNs within the set for Duration
		// slots, and an overlapping later burst extends the outage.
		if a.st.Bernoulli(ev.Rate) {
			lo := a.st.Intn(a.starts)
			for k := lo; k < lo+ev.Width && k < len(a.members); k++ {
				mb := &a.members[k]
				mb.until = t + ev.Duration
				a.set(mb, t < mb.until, r)
			}
			a.next = min(a.next, t+ev.Duration)
		}
		if t < a.next {
			return
		}
		next := math.MaxInt
		for k := range a.members {
			switch mb := &a.members[k]; {
			case !mb.down:
			case t >= mb.until:
				a.set(mb, false, r)
			default:
				next = min(next, mb.until)
			}
		}
		a.next = next
	}
}

// set moves a member to down, counting a transition the way the source's
// kind reports it and moving the SCN's down count.
func (a *availability) set(mb *member, down bool, r *upRow) {
	if down == mb.down {
		return
	}
	mb.down = down
	switch {
	case down && a.ev.Kind == KindSleep:
		r.rec.sleeps++
	case down:
		r.rec.fails++
	case a.ev.Kind != KindSleep:
		r.rec.rejoins++
	}
	m := mb.scn
	if down {
		r.held[m]++
	} else {
		r.held[m]--
	}
	if up := r.held[m] == 0; up != r.up[m] {
		r.up[m] = up
		r.moved = true
		if up {
			r.n++
		} else {
			r.n--
		}
	}
}

// cycle is one sinusoidal multiplier source — a diurnal capacity cycle
// or one of a budget event's α/β cycles — and the row entries it covers:
// base + m for each member m.
type cycle struct {
	ev      *Event
	min     float64
	members []int
	base    int     // 0 for capacity, scns for α, 2·scns for β
	mul     float64 // the value at the current slot
}

// at is the cycle's value at slot t: 1 at the crest (t = Offset mod
// Period), min at the trough.
func (c *cycle) at(t int) float64 {
	phase := 2 * math.Pi * float64(t-c.ev.Offset) / float64(c.ev.Period)
	return c.min + (1-c.min)*0.5*(1+math.Cos(phase))
}

// group is a set of row entries covered by the same cycles in the same
// order. Its product is its parent's times the value of the cycle that
// split it from the parent, so each entry's product multiplies its
// cycles' values into 1 in event order, one factor at a time.
type group struct {
	parent, cycle int32   // group 0, the entries no cycle covers, has neither
	split         int32   // while grouping: the group the latest cycle to touch this one moved its entries into
	caps          bool    // the group holds capacity entries
	prod          float64 // this slot's product; 1 for group 0
	cap           int     // this slot's capacity, when caps
}

// groupEntries partitions the row entries by the cycles covering them,
// records each entry's group in groupOf and returns the groups. Taking
// the cycles in event order, each cycle moves its entries out of every
// group it touches into one new group per touched group. A cycle makes
// at most one group per member, so a slot's group products cost no more
// multiplications than multiplying each member's entry would.
func groupEntries(cycles []cycle, groupOf []int32) []group {
	n := 1
	for i := range cycles {
		n += len(cycles[i].members)
	}
	groups := make([]group, 1, n)
	groups[0].prod = 1
	for ci := range cycles {
		c := &cycles[ci]
		for _, m := range c.members {
			e := c.base + m
			g := groupOf[e]
			to := groups[g].split
			if to == 0 || groups[to].cycle != int32(ci) {
				to = int32(len(groups))
				groups = append(groups, group{parent: g, cycle: int32(ci)})
				groups[g].split = to
			}
			groupOf[e] = to
		}
	}
	return groups
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
