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
// serve any slot with no allocation (random access is what checkpoint
// resume needs) and concurrent readers need no synchronization. It keeps
// one record per change: a slot whose rows and event counters all equal
// the previous slot's stores nothing, and a slot's record is the one of
// the last change at or before it, found by binary search. Rows are
// interned the same way, a row equal to the one stored last being stored
// once, so memory is O(changes + row changes × SCNs) rather than
// O(slots × SCNs). Availability and capacity rows change only at events
// and capacity steps; a budget cycle's multipliers move every slot, so a
// budget scenario stores about one record and one budget row per slot.
// For scenarios/churn.scn on the paper topology (30 SCNs × 10⁴ slots)
// Build takes ~0.37 ms, allocates 0.32 MB in 49 allocations and keeps
// 0.11 MB; at 10⁶ slots it keeps 9.5 MB, where a record per slot alone
// would keep 40 MB. At 300 SCNs × 4×10⁴ slots (the same config, SCN sets
// scaled tenfold) it takes ~18 ms and keeps 8.9 MB. DESIGN.md §13
// compares these with the earlier layouts.
// Slots beyond the horizon wrap (t mod slots), so a daemon outliving
// the configured horizon sees the cycle repeat rather than a cliff.
type Timeline struct {
	scns     int
	slots    int
	capacity int
	digest   string

	changes []change  // ascending by start; changes[0].start = 0
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

// change is the record of every slot from start up to the next change.
type change struct {
	start int
	rec   slotRec
}

// Build materializes cfg over a topology of scns SCNs and a horizon of
// slots slots. capacity is the nominal per-SCN capacity (required > 0
// when the config has diurnal events; otherwise may be 0). seed is the
// run's master seed — the same one handed to the simulator or daemon.
//
// Build walks from one slot where something can change to the next,
// and stores a record only where the slot's record differs from the last
// one stored. Each availability source keeps its members' masks and the
// first slot at which one of them can change (sleep: the next window
// edge; churn: the earliest phase end, kept at the top of a min-heap of
// its members; blockage: the next burst, found by drawing its per-slot
// burst Bernoulli ahead, or the earliest outage end) and touches its
// members only then. Transitions are counted per source, so overlapping
// sources each report their own events, and each moves a per-SCN count
// of the sources holding that SCN down; the up row is stored again only
// in a slot where a count crossed zero. The capacity and budget cycles
// multiply once per group of row entries they cover (see groupEntries),
// so every entry gets the product of the same factors in the same order
// as multiplying each entry would give. Budget cycles are evaluated on
// every slot, since their rows move every slot. Capacity cycles are
// evaluated only on slots where some group's rounded capacity can step
// (see group.quiet); capacity is rounded once per group, and its row
// rebuilt only when a group's rounded value steps.
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
		srcs       = make([]availability, 0, len(cfg.Events))
		caps, muls product
		hasMul     bool
	)
	for i := range cfg.Events {
		ev := &cfg.Events[i]
		members := ev.SCNs.members(scns)
		switch ev.Kind {
		case KindSleep, KindChurn, KindBlockage:
			srcs = append(srcs, newAvailability(ev, members, &root, uint64(i), slots))
		case KindDiurnal:
			if capacity <= 0 {
				return nil, fmt.Errorf("scenario: diurnal event %d needs a positive nominal capacity", i)
			}
			caps.cycles = append(caps.cycles, cycle{ev: ev, min: ev.MinCap, members: members})
		case KindBudget:
			hasMul = true
			if ev.AlphaMin < 1 {
				muls.cycles = append(muls.cycles, cycle{ev: ev, min: ev.AlphaMin, members: members})
			}
			if ev.BetaMin < 1 {
				muls.cycles = append(muls.cycles, cycle{ev: ev, min: ev.BetaMin, members: members, base: scns})
			}
		}
	}

	tl := &Timeline{
		scns:     scns,
		slots:    slots,
		capacity: capacity,
		digest:   digest(&cfg, scns, slots, capacity, seed),
	}
	r := upRow{held: make([]int32, scns), up: make([]bool, scns)}
	r.rec.upCount = int32(scns)
	for m := range r.up {
		r.up[m] = true
	}
	var (
		capRow  []int
		mulRow  []float64     // α then β multipliers
		capNext = math.MaxInt // no capacity group can step before this slot
	)
	if caps.cycles != nil {
		capRow = make([]int, scns)
		caps.groupEntries(scns)
		caps.bound(capacity, slots)
		capNext = 0
	}
	if hasMul {
		mulRow = make([]float64, 2*scns)
		muls.groupEntries(2 * scns)
		// A budget cycle moves its multipliers every slot, so nearly
		// every slot stores a row of its own.
		tl.mulRows = make([]float64, 0, slots*len(mulRow))
	}
	for t := 0; t < slots; {
		for i := range srcs {
			if srcs[i].next <= t {
				srcs[i].step(t, slots, &r)
			}
		}
		if t == 0 || r.moved {
			r.rec.up = intern(&tl.upRows, r.up)
			r.moved = false
		}
		if t >= capNext {
			caps.eval(t)
			stepped, quiet := false, slots
			for g := range caps.groups {
				gr := &caps.groups[g]
				if !gr.caps {
					continue
				}
				v := gr.prod * float64(capacity)
				c := min(max(int(math.Round(v)), 1), capacity)
				stepped = stepped || c != gr.cap
				gr.cap = c
				quiet = min(quiet, gr.quiet(v, capacity, slots))
			}
			if stepped {
				for m := range capRow {
					capRow[m] = caps.groups[caps.of[m]].cap
				}
				r.rec.caps = intern(&tl.capRows, capRow)
			}
			capNext = t + 1 + quiet
		}
		next := capNext
		if mulRow != nil {
			muls.eval(t)
			for k := range mulRow {
				mulRow[k] = muls.groups[muls.of[k]].prod
			}
			r.rec.mul = intern(&tl.mulRows, mulRow)
			next = t + 1
		}
		if n := len(tl.changes); n == 0 || r.rec != tl.changes[n-1].rec {
			tl.changes = append(grow(tl.changes, 1), change{t, r.rec})
		}
		for i := range srcs {
			next = min(next, srcs[i].next)
		}
		t = max(next, t+1) // a next that overflowed errs early: step on
	}
	tl.changes, tl.upRows, tl.capRows = slices.Clone(tl.changes), slices.Clone(tl.upRows), slices.Clone(tl.capRows)
	return tl, nil
}

// grow makes room for n more elements at the end of s. A full store
// grows to four times its length, so one that ends with N elements has
// been allocated O(log₄ N) times; Build copies each store to its length
// when done.
func grow[E any](s []E, n int) []E {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, 3*len(s)+16*n)
	}
	return s
}

// intern stores row at the end of rows unless it equals the row stored
// last, and returns the index of the stored row that equals it. Build
// interns each slot's row in slot order, so a run of equal rows is
// stored once.
func intern[E comparable](rows *[]E, row []E) int32 {
	n := len(row)
	last := len(*rows) - n
	if last < 0 || !slices.Equal((*rows)[last:], row) {
		*rows = append(grow(*rows, n), row...)
		last += n
	}
	return int32(last / n)
}

// upRow is the availability row while Build walks the slots: per SCN the
// number of sources holding it down, the up row those counts give, and
// the record of the current slot, which transitions are counted into.
type upRow struct {
	held  []int32
	up    []bool
	moved bool // an up entry flipped since the row was last stored
	rec   slotRec
}

// availability is one sleep, churn or blockage source's state while
// Build walks the slots.
type availability struct {
	ev      *Event
	members []member   // churn: a min-heap on until
	next    int        // no member changes state before this slot
	st      rng.Stream // the event's stream: blockage draws from it, churn derives from it
	starts  int        // blockage: burst placements within the set
	burst   int        // blockage: the next slot that starts a burst
	lo      int        // blockage: that burst's first member
	ends    int        // blockage: no outage ends before this slot
}

// member is one SCN's state in an availability source.
type member struct {
	scn   int
	down  bool       // the source's mask at the current slot
	until int        // churn's next phase start, blockage's outage end
	st    rng.Stream // churn: the SCN's own stream
}

func newAvailability(ev *Event, scns []int, root *rng.Stream, label uint64, slots int) availability {
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
		a.ends = math.MaxInt // no member is down
		a.burst = a.burstFrom(0, slots)
		a.next = a.burst
	}
	return a
}

// step advances the source to slot t, counting its transitions into r.
// Build calls it only at the source's next change. next only ever errs
// early (an overlapping burst extends an outage, a sum overflows), which
// costs a pass over the members and changes no state.
func (a *availability) step(t, slots int, r *upRow) {
	ev := a.ev
	switch ev.Kind {
	case KindSleep:
		// Down for Duration slots of every Period from Offset on: the
		// members move together, at the window edges.
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
		// ends. Each member draws from its own stream and the counters
		// add up the same in any order, so the members whose phases end
		// together are taken in heap order.
		for mb := &a.members[0]; mb.until <= t; mb = &a.members[0] {
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
			siftDown(a.members)
		}
		a.next = a.members[0].until
	case KindBlockage:
		// One Bernoulli per slot, plus one placement draw per burst,
		// from a single sequential stream: a burst takes out a
		// contiguous run of Width SCNs within the set for Duration
		// slots, and an overlapping later burst extends the outage.
		if t == a.burst {
			for k := a.lo; k < a.lo+ev.Width && k < len(a.members); k++ {
				mb := &a.members[k]
				mb.until = t + ev.Duration
				a.set(mb, t < mb.until, r)
			}
			a.ends = min(a.ends, t+ev.Duration)
			a.burst = a.burstFrom(t+1, slots)
		}
		if t >= a.ends {
			a.ends = math.MaxInt
			for k := range a.members {
				switch mb := &a.members[k]; {
				case !mb.down:
				case t >= mb.until:
					a.set(mb, false, r)
				default:
					a.ends = min(a.ends, mb.until)
				}
			}
		}
		a.next = min(a.burst, a.ends)
	}
}

// burstFrom draws a blockage source's burst Bernoulli for slot t and
// each later slot of the horizon, in slot order, until one starts a
// burst. It draws that burst's placement into a.lo, as a walk that drew
// at every slot would, and returns its slot: math.MaxInt if none does.
func (a *availability) burstFrom(t, slots int) int {
	for ; t < slots; t++ {
		if a.st.Bernoulli(a.ev.Rate) {
			a.lo = a.st.Intn(a.starts)
			return t
		}
	}
	return math.MaxInt
}

// siftDown restores the min-heap order on until after the root's until
// grew.
func siftDown(h []member) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].until < h[c].until {
			c++
		}
		if h[i].until <= h[c].until {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
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
			r.rec.upCount++
		} else {
			r.rec.upCount--
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
	base    int     // scns for β, else 0
	mul     float64 // the value at the slot last evaluated
}

// at is the cycle's value at slot t: 1 at the crest (t = Offset mod
// Period), min at the trough.
func (c *cycle) at(t int) float64 {
	phase := 2 * math.Pi * float64(t-c.ev.Offset) / float64(c.ev.Period)
	return c.min + (1-c.min)*0.5*(1+math.Cos(phase))
}

// product is the capacity or the budget cycles and the row entries they
// multiply, grouped by the cycles that cover them.
type product struct {
	cycles []cycle
	groups []group
	of     []int32 // per row entry, its group
}

// group is a set of row entries covered by the same cycles in the same
// order. Its product is its parent's times the value of the cycle that
// split it from the parent, so each entry's product multiplies its
// cycles' values into 1 in event order, one factor at a time.
type group struct {
	parent, cycle int32   // group 0, the entries no cycle covers, has neither
	split         int32   // while grouping: the group the latest cycle to touch this one moved its entries into
	caps          bool    // the group holds capacity entries
	prod          float64 // the product at the slot last evaluated; 1 for group 0
	cap           int     // the rounded capacity at that slot, when caps
	slope, err    float64 // capacity: see bound
}

// groupEntries partitions the product's row entries (capacity, or α then
// β, scns each) by the cycles covering them and records each entry's
// group. Taking the cycles in event order, each cycle moves its entries
// out of every group it touches into one new group per touched group. A
// cycle makes at most one group per member, so a slot's group products
// cost no more multiplications than multiplying each member's entry
// would.
func (p *product) groupEntries(entries int) {
	n := 1
	for i := range p.cycles {
		n += len(p.cycles[i].members)
	}
	p.of = make([]int32, entries)
	p.groups = make([]group, 1, n)
	p.groups[0].prod = 1
	for ci := range p.cycles {
		c := &p.cycles[ci]
		for _, m := range c.members {
			e := c.base + m
			g := p.of[e]
			to := p.groups[g].split
			if to == 0 || p.groups[to].cycle != int32(ci) {
				to = int32(len(p.groups))
				p.groups = append(p.groups, group{parent: g, cycle: int32(ci)})
				p.groups[g].split = to
			}
			p.of[e] = to
		}
	}
}

// eval sets every cycle's value and every group's product at slot t.
func (p *product) eval(t int) {
	for i := range p.cycles {
		p.cycles[i].mul = p.cycles[i].at(t)
	}
	for g := 1; g < len(p.groups); g++ {
		gr := &p.groups[g]
		gr.prod = p.groups[gr.parent].prod * p.cycles[gr.cycle].mul
	}
}

// bound marks the capacity groups and sets, for each group, two bounds on
// v = capacity·prod over the horizon. slope bounds how far v moves from
// one slot to the next: a cycle's value moves at most (1−min)·π/Period
// per slot, every factor lies in (0, 1], so the product moves at most the
// sum of its factors' moves. err bounds how far the computed v lies from
// the exact one: the phase 2π(t−Offset)/Period carries a relative error
// of a few ulps, so cos's argument is off by up to a few ulps of the
// largest phase on the horizon, and the products add a few ulps more;
// 2⁻⁴⁰ per cycle and radian covers both with room to spare.
func (p *product) bound(capacity, slots int) {
	for _, g := range p.of {
		p.groups[g].caps = true
	}
	c := float64(capacity)
	for g := 1; g < len(p.groups); g++ {
		gr := &p.groups[g]
		cy := &p.cycles[gr.cycle]
		period := float64(cy.ev.Period)
		phase := 2 * math.Pi * float64(max(cy.ev.Offset, slots)) / period
		gr.slope = p.groups[gr.parent].slope + c*(1-cy.min)*math.Pi/period
		gr.err = p.groups[gr.parent].err + c*0x1p-40*(1+phase)
	}
}

// quiet returns how many slots after one where capacity·prod is v the
// group's rounded capacity certainly stays as it is. Rounded and clamped
// to [1, capacity], it can step only where v crosses k+½ for
// 1 ≤ k < capacity. v moves at most slope per slot and every computed v
// is within err of the exact one, so the next n slots are quiet while
// n·slope < gap − 2·err, gap being v's distance to the nearest such edge.
func (gr *group) quiet(v float64, capacity, slots int) int {
	if capacity < 2 {
		return slots
	}
	edge := min(max(math.Floor(v)+0.5, 1.5), float64(capacity)-0.5)
	q := (math.Abs(v-edge) - 2*gr.err) / gr.slope
	switch {
	case !(q > 1):
		return 0
	case q > float64(slots):
		return slots
	}
	return int(math.Ceil(q)) - 1
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

// at returns the record of slot t of the horizon: that of the last
// change at or before t.
func (tl *Timeline) at(t int) *slotRec {
	lo, hi := 0, len(tl.changes) // changes[lo].start <= t < changes[hi].start
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if tl.changes[mid].start <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return &tl.changes[lo].rec
}

// ViewInto fills v with slot t's cross-section. The slices alias the
// timeline's interned rows (read-only); no allocation ever.
func (tl *Timeline) ViewInto(t int, v *View) {
	t = tl.wrap(t)
	rec := tl.at(t)
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
func (tl *Timeline) UpCount(t int) int { return int(tl.at(tl.wrap(t)).upCount) }

// EventTotals returns the cumulative sleep/fail/rejoin event counts
// through the end of slot t. Totals are monotone in t up to the
// horizon and restart from the full-cycle totals when t wraps.
func (tl *Timeline) EventTotals(t int) (sleeps, fails, rejoins uint64) {
	rec := tl.at(tl.wrap(t))
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
	rec, last := tl.at(t%tl.slots), &tl.changes[len(tl.changes)-1].rec
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
