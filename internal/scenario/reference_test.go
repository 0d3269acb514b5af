package scenario

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lfsc/internal/rng"
)

// buildReference builds a timeline the direct way, to check Build
// against: every slot steps every availability source over all its
// members, rebuilds the up row from the sources' masks when any member
// moved, multiplies every cycle into every member's entry, rounds and
// interns the capacity row, and writes a record for every slot. It
// returns those per-slot records beside the timeline, whose changes it
// takes from them. Build must agree with it on every slot's record and
// every interned row.
func buildReference(cfg Config, scns, slots, capacity int, seed uint64) (*Timeline, []slotRec, error) {
	if err := cfg.Validate(scns); err != nil {
		return nil, nil, err
	}
	if slots <= 0 {
		return nil, nil, fmt.Errorf("scenario: horizon %d <= 0", slots)
	}
	if capacity < 0 {
		return nil, nil, fmt.Errorf("scenario: capacity %d < 0", capacity)
	}
	var root rng.Stream
	rng.New(seed).DeriveInto(streamLabel, &root)
	var (
		srcs           []refSource
		cycles         []refCycle
		capMul, mulRow []float64 // this slot's capacity multipliers; α then β multipliers
	)
	for i := range cfg.Events {
		ev := &cfg.Events[i]
		members := ev.SCNs.members(scns)
		switch ev.Kind {
		case KindSleep, KindChurn, KindBlockage:
			srcs = append(srcs, newRefSource(ev, members, &root, uint64(i)))
		case KindDiurnal:
			if capacity <= 0 {
				return nil, nil, fmt.Errorf("scenario: diurnal event %d needs a positive nominal capacity", i)
			}
			if capMul == nil {
				capMul = make([]float64, scns)
			}
			cycles = append(cycles, refCycle{ev, ev.MinCap, members, capMul})
		case KindBudget:
			if mulRow == nil {
				mulRow = make([]float64, 2*scns)
			}
			if ev.AlphaMin < 1 {
				cycles = append(cycles, refCycle{ev, ev.AlphaMin, members, mulRow[:scns]})
			}
			if ev.BetaMin < 1 {
				cycles = append(cycles, refCycle{ev, ev.BetaMin, members, mulRow[scns:]})
			}
		}
	}

	tl := &Timeline{
		scns:     scns,
		slots:    slots,
		capacity: capacity,
		digest:   digest(&cfg, scns, slots, capacity, seed),
	}
	recs := make([]slotRec, slots)
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
		rec := &recs[t]
		changed := t == 0
		if t > 0 {
			*rec = recs[t-1]
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
		if t == 0 || *rec != recs[t-1] {
			tl.changes = append(tl.changes, change{t, *rec})
		}
	}
	tl.upRows, tl.capRows = slices.Clone(tl.upRows), slices.Clone(tl.capRows)
	return tl, recs, nil
}

// refSource is one sleep, churn or blockage source's state while
// buildReference walks the slots.
type refSource struct {
	ev      *Event
	members []int
	down    []bool       // per member: the source's mask at the current slot
	until   []int        // per member: churn's next phase start, blockage's outage end
	streams []rng.Stream // churn: one stream per member
	st      rng.Stream   // the event's stream: blockage draws from it, churn derives from it
	starts  int          // blockage: burst placements within the set
}

func newRefSource(ev *Event, members []int, root *rng.Stream, label uint64) refSource {
	a := refSource{
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
func (a *refSource) step(t, slots int, rec *slotRec) (changed bool) {
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
func (a *refSource) mask(up []bool) {
	for k, m := range a.members {
		if a.down[k] {
			up[m] = false
		}
	}
}

// set moves member k to down, counting a transition the way the
// source's kind reports it, and reports whether the member changed.
func (a *refSource) set(k int, down bool, rec *slotRec) bool {
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

// refCycle is one sinusoidal multiplier source — a diurnal capacity cycle
// or one of a budget event's α/β cycles — and the slot row it
// multiplies into.
type refCycle struct {
	ev      *Event
	min     float64
	members []int
	dst     []float64
}

// apply multiplies the cycle's value at slot t — 1 at the crest (t =
// Offset mod Period), min at the trough — into its members' entries.
func (c *refCycle) apply(t int) {
	phase := 2 * math.Pi * float64(t-c.ev.Offset) / float64(c.ev.Period)
	mul := c.min + (1-c.min)*0.5*(1+math.Cos(phase))
	for _, m := range c.members {
		c.dst[m] *= mul
	}
}

// refView is the View of slot t that the reference's record rec gives.
func refView(ref *Timeline, rec slotRec, t int) View {
	n := ref.scns
	v := View{Slot: t, Up: ref.upRows[int(rec.up)*n:][:n], UpCount: int(rec.upCount)}
	if ref.capRows != nil {
		v.Caps = ref.capRows[int(rec.caps)*n:][:n]
	}
	if ref.mulRows != nil {
		r := int(rec.mul) * 2 * n
		v.AlphaMul, v.BetaMul = ref.mulRows[r:r+n], ref.mulRows[r+n:r+2*n]
	}
	return v
}

// sameView reports whether two views of the same topology are equal.
// Every row has one entry per SCN, so comparing the rows' entries also
// tells a nil row from a stored one.
func sameView(a, b View) bool {
	return a.Slot == b.Slot && a.UpCount == b.UpCount && slices.Equal(a.Up, b.Up) && slices.Equal(a.Caps, b.Caps) &&
		slices.Equal(a.AlphaMul, b.AlphaMul) && slices.Equal(a.BetaMul, b.BetaMul)
}

// timelineDiff describes the first difference between tl and the
// reference ref with its per-slot records recs, or returns "" when they
// are the same timeline: at every slot the record tl resolves to is the
// reference's record for that slot; at every slot, at random slots up to
// past the horizon and at wrapped and negative slots, ViewInto, UpCount,
// EventTotals and CumEventTotals give what the reference's records give;
// and the interned rows and the stored changes are the same. seed picks
// the random slots.
func timelineDiff(tl, ref *Timeline, recs []slotRec, seed uint64) string {
	if tl.SCNs() != ref.SCNs() || tl.Slots() != ref.Slots() || tl.Digest() != ref.Digest() {
		return fmt.Sprintf("shape %d×%d %s, reference %d×%d %s",
			tl.SCNs(), tl.Slots(), tl.Digest(), ref.SCNs(), ref.Slots(), ref.Digest())
	}
	// Every slot of the horizon, then slots off it.
	n := ref.Slots()
	slots := make([]int, n, n+72)
	for t := range slots {
		slots[t] = t
	}
	slots = append(slots, -1, -n, math.MinInt, n, n+1, 2*n-1, 7*n+3, math.MaxInt)
	rs := rng.New(seed)
	for range 64 {
		slots = append(slots, rs.Intn(5*n)-n)
	}
	last := recs[n-1]
	var v View
	for i, t := range slots {
		cum := max(t, 0)
		rec := recs[cum%n]
		if i < n && *tl.at(t) != rec {
			return fmt.Sprintf("slot %d: record %+v, reference %+v", t, *tl.at(t), rec)
		}
		tl.ViewInto(t, &v)
		if want := refView(ref, rec, cum%n); !sameView(v, want) {
			return fmt.Sprintf("slot %d: view %+v, reference %+v", t, v, want)
		}
		if a, b := tl.UpCount(t), int(rec.upCount); a != b {
			return fmt.Sprintf("slot %d: up count %d, reference %d", t, a, b)
		}
		if s, f, r := tl.EventTotals(t); s != rec.sleeps || f != rec.fails || r != rec.rejoins {
			return fmt.Sprintf("slot %d: events %d/%d/%d, reference %d/%d/%d", t, s, f, r, rec.sleeps, rec.fails, rec.rejoins)
		}
		c := uint64(cum / n)
		ws, wf, wr := rec.sleeps+c*last.sleeps, rec.fails+c*last.fails, rec.rejoins+c*last.rejoins
		if s, f, r := tl.CumEventTotals(t); s != ws || f != wf || r != wr {
			return fmt.Sprintf("slot %d: cumulative events %d/%d/%d, reference %d/%d/%d", t, s, f, r, ws, wf, wr)
		}
	}
	switch {
	case !slices.Equal(tl.upRows, ref.upRows):
		return fmt.Sprintf("%d up rows, reference %d", len(tl.upRows)/tl.scns, len(ref.upRows)/ref.scns)
	case !slices.Equal(tl.capRows, ref.capRows) || (tl.capRows == nil) != (ref.capRows == nil):
		return fmt.Sprintf("%d capacity rows, reference %d", len(tl.capRows)/tl.scns, len(ref.capRows)/ref.scns)
	case !slices.Equal(tl.mulRows, ref.mulRows) || (tl.mulRows == nil) != (ref.mulRows == nil):
		return "multiplier rows differ"
	case !slices.Equal(tl.changes, ref.changes):
		return fmt.Sprintf("%d stored changes, reference %d", len(tl.changes), len(ref.changes))
	}
	return ""
}

// checkAgainstReference builds cfg with Build and with buildReference and
// fails t on any difference, including in whether the build is refused.
func checkAgainstReference(t testing.TB, name string, cfg Config, scns, slots, capacity int, seed uint64) {
	t.Helper()
	tl, err := Build(cfg, scns, slots, capacity, seed)
	ref, recs, refErr := buildReference(cfg, scns, slots, capacity, seed)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: Build error %v, reference error %v", name, err, refErr)
	}
	if err != nil {
		return
	}
	if d := timelineDiff(tl, ref, recs, seed); d != "" {
		t.Fatalf("%s (%d SCNs × %d slots, capacity %d, seed %d): %s\nconfig:\n%s",
			name, scns, slots, capacity, seed, d, cfg.canonical())
	}
}

// randomSet draws an SCN set over scns SCNs: the whole topology, a
// contiguous range, or scattered IDs.
func randomSet(r *rng.Stream, scns int) Set {
	switch r.Intn(3) {
	case 0:
		return Set{All: true}
	case 1:
		lo := r.Intn(scns)
		hi := lo + r.Intn(scns-lo)
		var s Set
		for m := lo; m <= hi; m++ {
			s.IDs = append(s.IDs, m)
		}
		return s
	}
	var s Set
	for m := 0; m < scns; m++ {
		if r.Intn(3) == 0 {
			s.IDs = append(s.IDs, m)
		}
	}
	if len(s.IDs) == 0 {
		s.IDs = []int{r.Intn(scns)}
	}
	return s
}

// randomPeriod draws a cycle length, 1 a quarter of the time.
func randomPeriod(r *rng.Stream) int {
	if r.Intn(4) == 0 {
		return 1
	}
	return 1 + r.Intn(400)
}

// randomOffset draws a phase offset: 0, or anywhere up to past the horizon.
func randomOffset(r *rng.Stream, slots int) int {
	if r.Intn(3) == 0 {
		return 0
	}
	return r.Intn(slots + slots/4)
}

// randomMin draws a trough multiplier in (0, 1], exactly 1 a fifth of
// the time.
func randomMin(r *rng.Stream) float64 {
	if r.Intn(5) == 0 {
		return 1
	}
	return 0.02 + 0.98*r.Float64()
}

// randomEvent draws one event of the given kind over scns SCNs.
func randomEvent(r *rng.Stream, kind string, scns, slots int) Event {
	ev := Event{Kind: kind, SCNs: randomSet(r, scns)}
	switch kind {
	case KindSleep:
		ev.Period = randomPeriod(r)
		ev.Duration = 1 + r.Intn(ev.Period)
		ev.Offset = randomOffset(r, slots)
	case KindChurn:
		ev.MeanUp = 0.2 + 300*r.Float64()
		ev.MeanDown = 0.2 + 60*r.Float64()
	case KindBlockage:
		switch r.Intn(5) {
		case 0:
			ev.Rate = 0
		case 1:
			ev.Rate = 1
		default:
			ev.Rate = 0.2 * r.Float64()
		}
		ev.Width = 1 + r.Intn(12)
		ev.Duration = 1 + r.Intn(40)
	case KindDiurnal:
		ev.Period = randomPeriod(r)
		ev.Offset = randomOffset(r, slots)
		ev.MinCap = randomMin(r)
	case KindBudget:
		ev.Period = randomPeriod(r)
		ev.Offset = randomOffset(r, slots)
		ev.AlphaMin, ev.BetaMin = randomMin(r), randomMin(r)
	}
	return ev
}

var allKinds = []string{KindSleep, KindChurn, KindBlockage, KindDiurnal, KindBudget}

// TestBuildMatchesReference checks Build against buildReference, slot by
// slot and row by row: on the golden timelines at T = 10⁴ and both
// golden seeds, on generated configs that stack all five kinds over
// overlapping SCN sets, with blockage sets narrower than their burst
// width, offsets up to past the horizon and cycles of period 1, and on
// diurnal-only configs, where every capacity row Build stores is found
// through its capacity skip: generated ones at capacities 1, 2, 20 and
// others, periods 1–7 on horizons past 10⁵ with offsets past the horizon,
// and cycles whose trough lands exactly on a rounding edge.
func TestBuildMatchesReference(t *testing.T) {
	for _, c := range timelineGoldenCases(t) {
		cfg, err := Parse([]byte(c[1]))
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range goldenSeeds {
			checkAgainstReference(t, c[0], cfg, goldenSCNs, goldenSlots, goldenCapacity, seed)
		}
	}

	const configs = 40
	r := rng.New(2024)
	var kinds [5]int
	var period1, narrow, offset, overlap int
	for i := 0; i < configs; i++ {
		scns := 1 + r.Intn(40)
		slots := 500 + r.Intn(2500)
		var cfg Config
		// The i-th config leads with kind i mod 5, so every kind appears.
		n := 1 + r.Intn(6)
		covered := make([]int, scns)
		for k := 0; k < n; k++ {
			kind := allKinds[r.Intn(len(allKinds))]
			if k == 0 {
				kind = allKinds[i%len(allKinds)]
			}
			ev := randomEvent(r, kind, scns, slots)
			cfg.Events = append(cfg.Events, ev)
			kinds[slices.Index(allKinds, kind)]++
			if ev.Period == 1 {
				period1++
			}
			if ev.Offset > 0 {
				offset++
			}
			if kind == KindBlockage && len(ev.SCNs.members(scns)) < ev.Width {
				narrow++
			}
			for _, m := range ev.SCNs.members(scns) {
				if covered[m]++; covered[m] == 2 {
					overlap++
				}
			}
		}
		if err := cfg.Validate(scns); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		checkAgainstReference(t, fmt.Sprintf("config %d", i), cfg, scns, slots, 1+r.Intn(30), r.Uint64())
	}
	if slices.Contains(kinds[:], 0) || period1 == 0 || narrow == 0 || offset == 0 || overlap == 0 {
		t.Fatalf("generated configs miss a case: kinds %v, period-1 cycles %d, narrow blockage sets %d, offsets %d, overlapping SCNs %d",
			kinds, period1, narrow, offset, overlap)
	}
	t.Logf("%d configs: kinds %v, %d period-1 cycles, %d narrow blockage sets, %d offsets, %d overlapping SCNs",
		configs, kinds, period1, narrow, offset, overlap)

	// Diurnal-only configs of 1–3 cycles. A third of the cycles are
	// shallow (min-cap near 1, so the skip spans many slots) and a third
	// are longer than half the horizon.
	const diurnals = 40
	overlap = 0
	for i := 0; i < diurnals; i++ {
		scns := 1 + r.Intn(12)
		slots := 500 + r.Intn(4500)
		capacity := []int{1, 2, 20, 1 + r.Intn(30)}[i%4]
		cfg := randomDiurnal(r, scns, slots, 1+r.Intn(3), func() int {
			if r.Intn(3) == 0 {
				return slots/2 + r.Intn(2*slots)
			}
			return randomPeriod(r)
		})
		overlap += overlaps(cfg, scns)
		checkAgainstReference(t, fmt.Sprintf("diurnal config %d", i), cfg, scns, slots, capacity, r.Uint64())
	}
	if overlap == 0 {
		t.Fatal("no two generated diurnal cycles overlap")
	}

	// Periods 1–7 on horizons past 10⁵ with offsets past the horizon: the
	// phases reach ~10⁶ rad, where each computed value is off by up to
	// ~10⁻¹⁰. At capacity 20, min-cap 0.05 at period 4 and 0.9 at period 6
	// put the value on a rounding edge (10.5, 19.5) every few slots, so
	// that error alone decides how it rounds there.
	for i := 0; i < 6; i++ {
		scns := 1 + r.Intn(4)
		slots := 100000 + r.Intn(20000)
		capacity := []int{1, 2, 20}[i%3]
		cfg := randomDiurnal(r, scns, slots, 1+r.Intn(3), func() int { return 1 + r.Intn(7) })
		for k := range cfg.Events {
			cfg.Events[k].Offset = slots + r.Intn(slots)
		}
		if capacity == 20 {
			edge := &cfg.Events[0]
			edge.Period, edge.MinCap = 4, 0.05
			if i == 5 {
				edge.Period, edge.MinCap = 6, 0.9
			}
		}
		checkAgainstReference(t, fmt.Sprintf("long diurnal config %d", i), cfg, scns, slots, capacity, r.Uint64())
	}

	// At capacity 20, min-cap 0.475 puts the value exactly on the edge 9.5
	// at every trough slot (cos is −1 there), where it rounds up to 10;
	// one ulp lower the trough slot alone rounds down to 9, and at 0.4749
	// a few slots round down around each trough. A second cycle with
	// min-cap 1 multiplies SCN 0's entry by exactly 1 in a group of its
	// own.
	for _, period := range []int{2, 6, 400, 2000} {
		for _, minCap := range []float64{0.475, math.Nextafter(0.475, 0), 0.4749} {
			cfg := Config{Events: []Event{
				{Kind: KindDiurnal, SCNs: Set{All: true}, Period: period, Offset: 3, MinCap: minCap},
				{Kind: KindDiurnal, SCNs: Set{IDs: []int{0}}, Period: 7, MinCap: 1},
			}}
			trough := 3 + period/2
			c := cycle{ev: &cfg.Events[0], min: minCap}
			if v := c.at(trough) * 20; (minCap == 0.475 && v != 9.5) || (minCap < 0.475 && v >= 9.5) {
				t.Fatalf("min-cap %v, period %d: capacity·value %v at the trough slot", minCap, period, v)
			}
			name := fmt.Sprintf("trough at 9.5, period %d, min-cap %v", period, minCap)
			checkAgainstReference(t, name, cfg, 3, 3*period+2000, 20, 1)
		}
	}
}

// randomDiurnal draws a diurnal-only config of n cycles over scns SCNs,
// each with a period from period, an offset up to past the horizon and a
// min-cap that is shallow (near 1) a third of the time.
func randomDiurnal(r *rng.Stream, scns, slots, n int, period func() int) Config {
	var cfg Config
	for ; n > 0; n-- {
		ev := randomEvent(r, KindDiurnal, scns, slots)
		ev.Period = period()
		if r.Intn(3) == 0 {
			ev.MinCap = 1 - 0.1*r.Float64()*r.Float64()
		}
		cfg.Events = append(cfg.Events, ev)
	}
	return cfg
}

// overlaps counts the SCNs that two or more of cfg's events cover.
func overlaps(cfg Config, scns int) int {
	covered := make([]int, scns)
	n := 0
	for _, ev := range cfg.Events {
		for _, m := range ev.SCNs.members(scns) {
			if covered[m]++; covered[m] == 2 {
				n++
			}
		}
	}
	return n
}

// TestCapacityBounds checks the two bounds Build's capacity skip rests
// on, for every capacity group of generated diurnal configs with periods
// 1–7 and up to twice the horizon and offsets up to twice the horizon,
// so that phases reach ~10⁶ rad. At every slot the computed
// v = capacity·prod must lie within err of the value whose phases are
// reduced in integers first ((t − Offset) mod Period), which keeps its
// error to a few ulps, and that value must move by at most slope from
// one slot to the next.
func TestCapacityBounds(t *testing.T) {
	r := rng.New(99)
	for i := 0; i < 8; i++ {
		scns := 1 + r.Intn(6)
		slots := 20000 + r.Intn(80000)
		capacity := []int{2, 20, 1 + r.Intn(30)}[i%3]
		cfg := randomDiurnal(r, scns, slots, 1+r.Intn(3), func() int {
			if r.Intn(2) == 0 {
				return 1 + r.Intn(7)
			}
			return 8 + r.Intn(2*slots)
		})
		var p product
		for k := range cfg.Events {
			ev := &cfg.Events[k]
			ev.Offset = r.Intn(2 * slots)
			p.cycles = append(p.cycles, cycle{ev: ev, min: ev.MinCap, members: ev.SCNs.members(scns)})
		}
		p.groupEntries(scns)
		p.bound(capacity, slots)
		c := float64(capacity)
		exact := make([]float64, len(p.groups)) // per group: the product from reduced phases
		last := make([]float64, len(p.groups))  // per group: capacity·exact at the slot before
		exact[0] = 1
		for s := 0; s < slots; s++ {
			p.eval(s)
			for g := 1; g < len(p.groups); g++ {
				gr := &p.groups[g]
				cy := &p.cycles[gr.cycle]
				k := (s - cy.ev.Offset) % cy.ev.Period
				if k < 0 {
					k += cy.ev.Period
				}
				phase := 2 * math.Pi * float64(k) / float64(cy.ev.Period)
				exact[g] = exact[gr.parent] * (cy.min + (1-cy.min)*0.5*(1+math.Cos(phase)))
				if !gr.caps {
					continue
				}
				v, ve := gr.prod*c, exact[g]*c
				if d := math.Abs(v - ve); d > gr.err {
					t.Fatalf("config %d, group %d, slot %d: v %v is %g from %v, err bound %g\nconfig:\n%s",
						i, g, s, v, d, ve, gr.err, cfg.canonical())
				}
				if d := math.Abs(ve - last[g]); s > 0 && d > gr.slope+c*0x1p-44 {
					t.Fatalf("config %d, group %d, slot %d: v moved %g in one slot, slope bound %g\nconfig:\n%s",
						i, g, s, d, gr.slope, cfg.canonical())
				}
				last[g] = ve
			}
		}
	}
}
