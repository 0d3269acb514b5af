package scenario

import (
	"reflect"
	"runtime"
	"testing"
)

// goldenConfigs is the accept/reject table shared by the parser unit
// test and FuzzScenarioParse's seed corpus: every syntactically valid
// config must parse AND validate (against 30 SCNs) exactly as recorded.
var goldenConfigs = []struct {
	name   string
	src    string
	accept bool
}{
	{"empty", "", true},
	{"comment-only", "# nothing here\n\n# still nothing\n", true},
	{"top-scns", "scns = 30\n", true},
	{"sleep-basic", "[sleep]\nperiod = 100\nduration = 25\n", true},
	{"sleep-subset", "[sleep]\nscns = 0-9\nperiod = 200\noffset = 50\nduration = 60\n", true},
	{"churn", "[churn]\nmean-up = 80\nmean-down = 20\n", true},
	{"churn-subset", "[churn]\nscns = 1,4-6,9\nmean-up = 40.5\nmean-down = 10\n", true},
	{"blockage", "[blockage]\nrate = 0.01\nwidth = 4\nduration = 12\n", true},
	{"diurnal", "[diurnal]\nperiod = 500\nmin-cap = 0.4\n", true},
	{"budget-alpha-only", "[budget]\nperiod = 300\nalpha-min = 0.5\n", true},
	{"stacked", "scns = 30\n[sleep]\nscns = 0-4\nperiod = 120\nduration = 40\n[churn]\nmean-up = 60\nmean-down = 15\n[diurnal]\nperiod = 400\nmin-cap = 0.5\n", true},
	{"whitespace-and-comments", "  # header\n\n  scns =  30 \n [sleep] \n period=10\n duration=3\n", true},

	{"unknown-kind", "[siesta]\nperiod = 10\n", false},
	{"unknown-key", "[sleep]\nperiod = 10\nduration = 2\ncolor = red\n", false},
	{"duplicate-key", "[sleep]\nperiod = 10\nperiod = 20\nduration = 2\n", false},
	{"duplicate-top-key", "scns = 30\nscns = 30\n", false},
	{"key-before-section", "period = 10\n", false},
	{"bad-number", "[sleep]\nperiod = ten\nduration = 2\n", false},
	{"empty-value", "[sleep]\nperiod =\nduration = 2\n", false},
	{"unterminated-section", "[sleep\nperiod = 10\n", false},
	{"no-equals", "[sleep]\nperiod 10\n", false},
	{"scn-out-of-range", "[sleep]\nscns = 25-35\nperiod = 10\nduration = 2\n", false},
	{"scn-negative-range", "[churn]\nscns = 5-2\nmean-up = 10\nmean-down = 5\n", false},
	{"scn-duplicate", "[churn]\nscns = 3,3\nmean-up = 10\nmean-down = 5\n", false},
	{"scn-huge-span", "[sleep]\nscns = 0-2000000000\nperiod = 10\nduration = 2\n", false},
	{"sleep-duration-over-period", "[sleep]\nperiod = 10\nduration = 11\n", false},
	{"sleep-zero-period", "[sleep]\nperiod = 0\nduration = 0\n", false},
	{"sleep-negative-offset", "[sleep]\nperiod = 10\noffset = -1\nduration = 2\n", false},
	{"churn-zero-mean", "[churn]\nmean-up = 0\nmean-down = 5\n", false},
	{"churn-nan-mean", "[churn]\nmean-up = NaN\nmean-down = 5\n", false},
	{"blockage-rate-over-1", "[blockage]\nrate = 1.5\nwidth = 2\nduration = 3\n", false},
	{"blockage-zero-width", "[blockage]\nrate = 0.1\nwidth = 0\nduration = 3\n", false},
	{"diurnal-zero-min-cap", "[diurnal]\nperiod = 100\nmin-cap = 0\n", false},
	{"budget-bad-alpha", "[budget]\nperiod = 100\nalpha-min = 1.5\n", false},
	{"scns-mismatch", "scns = 12\n[sleep]\nperiod = 10\nduration = 2\n", false},
	{"truncated-mid-line", "[sleep]\nperiod = 1", false}, // parses but fails validation (duration 0)

	// Each is a valid config plus one key its kind never reads.
	{"sleep-stray-key", "[sleep]\nperiod = 10\nduration = 2\nmin-cap = 0.5\n", false},
	{"churn-stray-key", "[churn]\nmean-up = 80\nmean-down = 20\nmin-cap = 0.5\n", false},
	{"blockage-stray-key", "[blockage]\nrate = 0.01\nwidth = 4\nduration = 12\noffset = 3\n", false},
	{"diurnal-stray-key", "[diurnal]\nperiod = 500\nmin-cap = 0.4\nduration = 50\n", false},
	{"budget-stray-key", "[budget]\nperiod = 300\nalpha-min = 0.5\nduration = 60\n", false},
}

func TestParseGoldens(t *testing.T) {
	for _, g := range goldenConfigs {
		cfg, err := Parse([]byte(g.src))
		if err == nil {
			err = cfg.Validate(30)
		}
		if got := err == nil; got != g.accept {
			t.Errorf("%s: accept=%v, want %v (err=%v)", g.name, got, g.accept, err)
		}
	}
}

func mustBuild(t *testing.T, src string, scns, slots, capacity int, seed uint64) *Timeline {
	t.Helper()
	cfg, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Build(cfg, scns, slots, capacity, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

const testCfg = `
[sleep]
scns = 0-3
period = 50
offset = 10
duration = 15
[churn]
scns = 4-11
mean-up = 40
mean-down = 12
[blockage]
rate = 0.02
width = 3
duration = 8
[diurnal]
period = 200
min-cap = 0.5
[budget]
period = 150
alpha-min = 0.6
beta-min = 0.8
`

// sameViews reports whether two timelines give equal views and event
// totals at every slot of their horizon.
func sameViews(a, b *Timeline) bool {
	if a.Slots() != b.Slots() {
		return false
	}
	var va, vb View
	for t := 0; t < a.Slots(); t++ {
		a.ViewInto(t, &va)
		b.ViewInto(t, &vb)
		if !reflect.DeepEqual(va, vb) {
			return false
		}
		sa, fa, ra := a.EventTotals(t)
		sb, fb, rb := b.EventTotals(t)
		if sa != sb || fa != fb || ra != rb {
			return false
		}
	}
	return true
}

// TestBuildDeterministic: same config + seed ⇒ identical views at every
// slot; a different seed must actually change the stochastic sources.
func TestBuildDeterministic(t *testing.T) {
	a := mustBuild(t, testCfg, 12, 400, 3, 42)
	b := mustBuild(t, testCfg, 12, 400, 3, 42)
	if !sameViews(a, b) {
		t.Fatal("same config+seed produced different timelines")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("digest not deterministic")
	}
	c := mustBuild(t, testCfg, 12, 400, 3, 43)
	if sameViews(a, c) {
		t.Fatal("different seed left the churn/blockage mask unchanged")
	}
	if a.Digest() == c.Digest() {
		t.Fatal("digest ignores the seed")
	}
}

// TestDigestCanonical: formatting, comments, and key order do not move
// the digest; any semantic change does.
func TestDigestCanonical(t *testing.T) {
	a := mustBuild(t, "[sleep]\nperiod = 100\nduration = 20\n", 8, 300, 2, 7)
	b := mustBuild(t, "# padded\n  [sleep]  \n  duration=20\n  period = 100\n", 8, 300, 2, 7)
	if a.Digest() != b.Digest() {
		t.Fatalf("formatting moved the digest: %s vs %s", a.Digest(), b.Digest())
	}
	c := mustBuild(t, "[sleep]\nperiod = 100\nduration = 21\n", 8, 300, 2, 7)
	if a.Digest() == c.Digest() {
		t.Fatal("semantic change kept the digest")
	}
	d := mustBuild(t, "[sleep]\nperiod = 100\nduration = 20\n", 8, 300, 2, 8)
	if a.Digest() == d.Digest() {
		t.Fatal("seed change kept the digest")
	}
}

// TestSleepWindows pins the sleep schedule semantics exactly: down iff
// t ≥ offset and (t-offset) mod period < duration, for set members only.
func TestSleepWindows(t *testing.T) {
	tl := mustBuild(t, "[sleep]\nscns = 1-2\nperiod = 10\noffset = 5\nduration = 3\n", 4, 60, 0, 1)
	var v View
	for tt := 0; tt < 60; tt++ {
		tl.ViewInto(tt, &v)
		wantDown := tt >= 5 && (tt-5)%10 < 3
		for m := 0; m < 4; m++ {
			affected := m == 1 || m == 2
			if up := v.Up[m]; up != !(wantDown && affected) {
				t.Fatalf("t=%d m=%d: up=%v", tt, m, up)
			}
		}
		if v.Caps != nil || v.AlphaMul != nil {
			t.Fatal("sleep-only scenario materialized capacity/budget arrays")
		}
	}
	s, f, r := tl.EventTotals(59)
	// Windows start at t=5,15,...,55 → 6 entries × 2 SCNs.
	if s != 12 || f != 0 || r != 0 {
		t.Fatalf("event totals = %d/%d/%d, want 12/0/0", s, f, r)
	}
}

// TestChurnMaskConsistent: counters, up counts, and the mask agree.
func TestChurnMaskConsistent(t *testing.T) {
	tl := mustBuild(t, "[churn]\nmean-up = 20\nmean-down = 8\n", 10, 500, 0, 99)
	var v View
	prevUp := make([]bool, 10)
	for i := range prevUp {
		prevUp[i] = true
	}
	fails, rejoins := uint64(0), uint64(0)
	for tt := 0; tt < 500; tt++ {
		tl.ViewInto(tt, &v)
		n := 0
		for m, up := range v.Up {
			if up {
				n++
			}
			if up != prevUp[m] {
				if up {
					rejoins++
				} else {
					fails++
				}
				prevUp[m] = up
			}
		}
		if n != v.UpCount {
			t.Fatalf("t=%d: UpCount=%d, mask says %d", tt, v.UpCount, n)
		}
	}
	_, f, r := tl.EventTotals(499)
	if f != fails || r != rejoins {
		t.Fatalf("cumulative totals %d/%d, mask transitions %d/%d", f, r, fails, rejoins)
	}
	if fails == 0 {
		t.Fatal("500 slots of mean-up=20 churn produced zero failures")
	}
}

// TestDiurnalCaps: caps stay within [1, nominal], hit the nominal at
// the crest, and dip to round(min·nominal) at the trough.
func TestDiurnalCaps(t *testing.T) {
	tl := mustBuild(t, "[diurnal]\nperiod = 100\nmin-cap = 0.5\n", 6, 200, 4, 3)
	var v View
	lo, hi := 99, 0
	for tt := 0; tt < 200; tt++ {
		tl.ViewInto(tt, &v)
		for _, c := range v.Caps {
			if c < 1 || c > 4 {
				t.Fatalf("t=%d: cap %d outside [1,4]", tt, c)
			}
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
	}
	if hi != 4 || lo != 2 {
		t.Fatalf("cap range [%d,%d], want [2,4]", lo, hi)
	}
	tl.ViewInto(0, &v)
	if v.Caps[0] != 4 {
		t.Fatalf("crest (t=0) cap = %d, want nominal 4", v.Caps[0])
	}
}

// TestBudgetMultipliers: trough/crest values and the all-up mask.
func TestBudgetMultipliers(t *testing.T) {
	tl := mustBuild(t, "[budget]\nperiod = 100\nalpha-min = 0.6\n", 5, 100, 0, 3)
	var v View
	tl.ViewInto(0, &v)
	if v.AlphaMul[0] != 1 || v.BetaMul[0] != 1 {
		t.Fatalf("crest multipliers %g/%g, want 1/1", v.AlphaMul[0], v.BetaMul[0])
	}
	tl.ViewInto(50, &v)
	if got := v.AlphaMul[2]; got < 0.599 || got > 0.601 {
		t.Fatalf("trough alpha multiplier %g, want ≈0.6", got)
	}
	if v.BetaMul[2] != 1 {
		t.Fatalf("beta multiplier moved (%g) though only alpha-min was set", v.BetaMul[2])
	}
	if !v.Up[0] || v.UpCount != 5 {
		t.Fatal("budget-only scenario masked an SCN")
	}
}

// TestAllUpAndWrap: an empty config is semantically static, and slots
// beyond the horizon wrap onto the cycle.
func TestAllUpAndWrap(t *testing.T) {
	tl := mustBuild(t, "", 7, 50, 3, 1)
	if !tl.AllUp() {
		t.Fatal("empty config is not AllUp")
	}
	churny := mustBuild(t, "[churn]\nmean-up = 10\nmean-down = 5\n", 7, 50, 3, 1)
	if churny.AllUp() {
		t.Fatal("churn scenario reported AllUp")
	}
	var a, b View
	churny.ViewInto(13, &a)
	churny.ViewInto(13+50, &b)
	if a.Slot != b.Slot || &a.Up[0] != &b.Up[0] {
		t.Fatal("wrapped slot did not alias the same row")
	}
}

// TestBuildRejects: topology-dependent errors surface at Build.
func TestBuildRejects(t *testing.T) {
	cfg, err := Parse([]byte("[diurnal]\nperiod = 10\nmin-cap = 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(cfg, 4, 100, 0, 1); err == nil {
		t.Fatal("diurnal with capacity=0 accepted")
	}
	if _, err := Build(cfg, 0, 100, 3, 1); err == nil {
		t.Fatal("scns=0 accepted")
	}
	if _, err := Build(cfg, 4, 0, 3, 1); err == nil {
		t.Fatal("slots=0 accepted")
	}
	pinned, err := Parse([]byte("scns = 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(pinned, 9, 100, 3, 1); err == nil {
		t.Fatal("scns pin mismatch accepted")
	}
}

// TestViewIntoZeroAlloc: the per-slot view fill is alloc-free.
func TestViewIntoZeroAlloc(t *testing.T) {
	tl := mustBuild(t, testCfg, 12, 400, 3, 42)
	var v View
	allocs := testing.AllocsPerRun(200, func() {
		tl.ViewInto(17, &v)
		tl.ViewInto(391, &v)
	})
	if allocs != 0 {
		t.Fatalf("ViewInto allocates %.1f per call pair", allocs)
	}
}

// churn300 is scenarios/churn.scn with its SCN sets scaled tenfold, for
// the 300-SCN scale point.
const churn300 = `
scns = 300
[churn]
scns = 100-299
mean-up = 400
mean-down = 60
[blockage]
scns = 0-99
rate = 0.005
width = 4
duration = 12
[diurnal]
scns = *
period = 2000
min-cap = 0.6
`

// timelineBytes is the memory a timeline keeps: its stored changes and
// its interned rows.
func timelineBytes(tl *Timeline) int {
	return cap(tl.changes)*int(reflect.TypeOf(change{}).Size()) + cap(tl.upRows) +
		cap(tl.capRows)*int(reflect.TypeOf(0).Size()) + cap(tl.mulRows)*8
}

// TestBuildCost pins what Build costs. On the paper topology (30 SCNs,
// c = 20), scenarios/churn.scn at T = 10⁴ allocates under 2 MB (the
// slot-by-SCN layout allocated 8.4 MB) and keeps at most 128 KiB, one
// record per change (a 40-byte record per slot kept 0.45 MB). At T = 10⁶
// it keeps at most 12 MB, where records per slot alone would keep 40 MB.
// Scaled to 300 SCNs over 4×10⁴ slots it keeps at most 15 MB, where the
// slot-by-SCN layout kept 109 MB.
func TestBuildCost(t *testing.T) {
	src := shippedScenario(t, "churn.scn")
	cfg, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tl, err := Build(cfg, 30, 10000, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if bytes := m1.TotalAlloc - m0.TotalAlloc; bytes >= 2<<20 {
		t.Errorf("T=10⁴: Build allocated %d bytes, want < 2 MiB", bytes)
	}
	if n := timelineBytes(tl); n > 128<<10 {
		t.Errorf("T=10⁴: the timeline keeps %d bytes, want ≤ 128 KiB", n)
	}
	if n := timelineBytes(mustBuild(t, src, 30, 1000000, 20, 42)); n > 12e6 {
		t.Errorf("T=10⁶: the timeline keeps %d bytes, want ≤ 12 MB", n)
	}
	if n := timelineBytes(mustBuild(t, churn300, 300, 40000, 20, 42)); n > 15e6 {
		t.Errorf("300 SCNs × 4×10⁴ slots: the timeline keeps %d bytes, want ≤ 15 MB", n)
	}
}

// maxBuildAllocs is what Build allocated for scenarios/churn.scn over the
// paper topology at T = 10⁴ when it stepped every member of every source
// and multiplied every cycle into every entry on every slot.
const maxBuildAllocs = 58

// TestBuildAllocs pins Build's allocations on scenarios/churn.scn over
// the paper topology. The entry groups, the per-SCN down counts and the
// member states are allocated once per Build, never per slot, so the
// count stays within maxBuildAllocs at T = 10⁴ and grows by no more than
// the row and change stores' growth at T = 4×10⁴.
func TestBuildAllocs(t *testing.T) {
	cfg, err := Parse([]byte(shippedScenario(t, "churn.scn")))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(slots int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Build(cfg, 30, slots, 20, 42); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10000), allocs(40000)
	if short > maxBuildAllocs {
		t.Errorf("T=10⁴: Build made %v allocations, want ≤ %d", short, maxBuildAllocs)
	}
	if long > short+5 {
		t.Errorf("Build made %v allocations at T=4×10⁴ but %v at T=10⁴", long, short)
	}
}

var buildSink *Timeline

// BenchmarkBuild times Build on scenarios/churn.scn. The paper case is the
// paper topology at T = 10⁴, what lfscd, lfscsim and lfscload pay at
// start-up under -scenario; paper-1e6 is the same topology at T = 10⁶;
// the scale300 case scales its SCN sets tenfold over 300 SCNs at
// T = 4×10⁴, the scale point of DESIGN.md §13's table.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name        string
		src         string
		scns, slots int
	}{
		{"paper", shippedScenario(b, "churn.scn"), 30, 10000},
		{"paper-1e6", shippedScenario(b, "churn.scn"), 30, 1000000},
		{"scale300", churn300, 300, 40000},
	} {
		cfg, err := Parse([]byte(c.src))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if buildSink, err = Build(cfg, c.scns, c.slots, 20, 42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
