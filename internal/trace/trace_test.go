package trace

import (
	"bytes"
	"strings"
	"testing"

	"lfsc/internal/geo"
	"lfsc/internal/rng"
	"lfsc/internal/task"
)

func TestSyntheticConfigValidate(t *testing.T) {
	if err := DefaultSyntheticConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []func(*SyntheticConfig){
		func(c *SyntheticConfig) { c.SCNs = 0 },
		func(c *SyntheticConfig) { c.MinTasks = 0 },
		func(c *SyntheticConfig) { c.MaxTasks = c.MinTasks - 1 },
		func(c *SyntheticConfig) { c.Overlap = 1.5 },
		func(c *SyntheticConfig) { c.LatencySensitiveFrac = -0.1 },
	}
	for i, mutate := range bad {
		c := DefaultSyntheticConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestSyntheticCountsInRange(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	g, err := NewSynthetic(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 20; slot++ {
		s := g.Next(slot)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(s.Coverage) != cfg.SCNs {
			t.Fatalf("coverage arity %d", len(s.Coverage))
		}
		for m, cov := range s.Coverage {
			if len(cov) < cfg.MinTasks {
				t.Fatalf("slot %d SCN %d has %d tasks < min %d", slot, m, len(cov), cfg.MinTasks)
			}
			if len(cov) > g.MaxPerSCN() {
				t.Fatalf("slot %d SCN %d has %d tasks > bound %d", slot, m, len(cov), g.MaxPerSCN())
			}
		}
	}
}

func TestSyntheticOverlapCreatesSharing(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Overlap = 0.5
	g, _ := NewSynthetic(cfg, rng.New(2))
	s := g.Next(0)
	deg := make(map[int]int)
	for _, cov := range s.Coverage {
		for _, i := range cov {
			deg[i]++
		}
	}
	shared := 0
	for _, d := range deg {
		if d > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("overlap=0.5 produced no shared tasks")
	}
	// Zero overlap must produce none.
	cfg.Overlap = 0
	g2, _ := NewSynthetic(cfg, rng.New(3))
	s2 := g2.Next(0)
	deg2 := make(map[int]int)
	for _, cov := range s2.Coverage {
		for _, i := range cov {
			deg2[i]++
		}
	}
	for i, d := range deg2 {
		if d > 1 {
			t.Fatalf("overlap=0 shared task %d across %d SCNs", i, d)
		}
	}
}

func TestSyntheticTaskAttributes(t *testing.T) {
	g, _ := NewSynthetic(DefaultSyntheticConfig(), rng.New(4))
	s := g.Next(0)
	ids := map[int64]bool{}
	for _, tk := range s.Tasks {
		if err := tk.Validate(); err != nil {
			t.Fatal(err)
		}
		if tk.InputMbit < task.MinInputMbit || tk.InputMbit > task.MaxInputMbit {
			t.Fatalf("input size %v outside paper range", tk.InputMbit)
		}
		if tk.OutputMbit < task.MinOutputMbit || tk.OutputMbit > task.MaxOutputMbit {
			t.Fatalf("output size %v outside paper range", tk.OutputMbit)
		}
		if ids[tk.ID] {
			t.Fatalf("duplicate task id %d", tk.ID)
		}
		ids[tk.ID] = true
	}
}

func TestSyntheticHeavyTail(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Heavy = true
	g, _ := NewSynthetic(cfg, rng.New(5))
	s := g.Next(0)
	for _, tk := range s.Tasks {
		if tk.InputMbit < task.MinInputMbit || tk.InputMbit > task.MaxInputMbit {
			t.Fatalf("heavy input %v outside clamp range", tk.InputMbit)
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a, _ := NewSynthetic(DefaultSyntheticConfig(), rng.New(6))
	b, _ := NewSynthetic(DefaultSyntheticConfig(), rng.New(6))
	sa, sb := a.Next(0), b.Next(0)
	if len(sa.Tasks) != len(sb.Tasks) {
		t.Fatal("same-seed generators differ in task count")
	}
	for i := range sa.Tasks {
		if sa.Tasks[i].InputMbit != sb.Tasks[i].InputMbit {
			t.Fatal("same-seed generators differ in task attributes")
		}
	}
}

func TestGeoGenerator(t *testing.T) {
	area := geo.Area{W: 600, H: 600}
	cfg := GeoConfig{
		Area:         area,
		SCNPositions: geo.PlaceGrid(area, 9),
		RadiusM:      180,
		WDs:          300,
		TaskProb:     0.5,
		MinSpeed:     1,
		MaxSpeed:     10,
		MaxPause:     3,
	}
	g, err := NewGeo(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if g.SCNs() != 9 || g.MaxPerSCN() != 300 {
		t.Fatalf("SCNs=%d MaxPerSCN=%d", g.SCNs(), g.MaxPerSCN())
	}
	totalCovered := 0
	for slot := 0; slot < 10; slot++ {
		s := g.Next(slot)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(g.LastPositions) != len(s.Tasks) || len(g.LastWDs) != len(s.Tasks) {
			t.Fatal("LastPositions/LastWDs out of sync with tasks")
		}
		for _, cov := range s.Coverage {
			totalCovered += len(cov)
		}
	}
	if totalCovered == 0 {
		t.Fatal("geo generator produced no covered tasks in 10 slots")
	}
}

func TestGeoConfigValidate(t *testing.T) {
	area := geo.Area{W: 100, H: 100}
	good := GeoConfig{Area: area, SCNPositions: geo.PlaceGrid(area, 4),
		RadiusM: 50, WDs: 10, TaskProb: 0.5, MaxSpeed: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*GeoConfig){
		func(c *GeoConfig) { c.Area = geo.Area{} },
		func(c *GeoConfig) { c.SCNPositions = nil },
		func(c *GeoConfig) { c.RadiusM = 0 },
		func(c *GeoConfig) { c.WDs = 0 },
		func(c *GeoConfig) { c.TaskProb = 2 },
		func(c *GeoConfig) { c.MinSpeed = 5; c.MaxSpeed = 1 },
	}
	for i, mutate := range bad {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad geo config %d accepted", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g, _ := NewSynthetic(SyntheticConfig{SCNs: 4, MinTasks: 3, MaxTasks: 6, Overlap: 0.4}, rng.New(8))
	var slots []*Slot
	for i := 0; i < 5; i++ {
		slots = append(slots, g.Next(i))
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, slots); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(slots) {
		t.Fatalf("round trip slots %d != %d", len(back), len(slots))
	}
	for i := range slots {
		if len(back[i].Tasks) != len(slots[i].Tasks) {
			t.Fatalf("slot %d task count %d != %d", i, len(back[i].Tasks), len(slots[i].Tasks))
		}
		for j, tk := range slots[i].Tasks {
			b := back[i].Tasks[j]
			if b.ID != tk.ID || b.WD != tk.WD || b.Resource != tk.Resource ||
				b.LatencySensitive != tk.LatencySensitive {
				t.Fatalf("slot %d task %d mismatch: %v vs %v", i, j, b, tk)
			}
		}
		for m := range slots[i].Coverage {
			if len(back[i].Coverage[m]) != len(slots[i].Coverage[m]) {
				t.Fatalf("slot %d SCN %d coverage mismatch", i, m)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",             // empty
		"wrong,header", // bad header
		csvHeader + "\n0,1,2,three,2,true,cpu,1,0",  // bad float
		csvHeader + "\n0,1,2,10,2,true,quantum,1,0", // bad resource
		csvHeader + "\n0,1,2,10,2,true,cpu,1,9",     // SCN out of range
		csvHeader + "\n-1,1,2,10,2,true,cpu,1,0",    // bad slot
		csvHeader + "\n0,1,2,10,2,maybe,cpu,1,0",    // bad bool
		csvHeader + "\n0,1,2,10,2,true,cpu,1",       // too few fields
		csvHeader + "\n0,x,2,10,2,true,cpu,1,0",     // bad id
		csvHeader + "\n0,1,y,10,2,true,cpu,1,0",     // bad wd
		csvHeader + "\n0,1,2,10,zz,true,cpu,1,0",    // bad output
		csvHeader + "\n0,1,2,-10,2,true,cpu,1,0",    // negative size fails Validate
		csvHeader + "\n0,1,2,10,2,true,cpu,0,0",     // bad duration
		csvHeader + "\n0,1,2,10,2,true,cpu,x,0",     // non-numeric duration
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), 4); err == nil {
			t.Fatalf("case %d accepted: %q", i, c)
		}
	}
	if _, err := ReadCSV(strings.NewReader(csvHeader), 0); err == nil {
		t.Fatal("numSCNs=0 accepted")
	}
}

func TestReadCSVSkipsBlankLinesAndUncoveredTasks(t *testing.T) {
	in := csvHeader + "\n\n0,1,2,10,2,true,cpu,1,\n"
	slots, err := ReadCSV(strings.NewReader(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 1 || len(slots[0].Tasks) != 1 {
		t.Fatalf("parsed %d slots", len(slots))
	}
	if len(slots[0].Coverage[0])+len(slots[0].Coverage[1]) != 0 {
		t.Fatal("uncovered task should have empty coverage")
	}
}

func TestReplay(t *testing.T) {
	g, _ := NewSynthetic(SyntheticConfig{SCNs: 3, MinTasks: 2, MaxTasks: 4}, rng.New(9))
	slots := []*Slot{g.Next(0), g.Next(1)}
	r, err := NewReplay(slots, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.SCNs() != 3 || r.Len() != 2 {
		t.Fatal("replay metadata wrong")
	}
	if r.Next(0) != slots[0] || r.Next(1) != slots[1] || r.Next(2) != slots[0] {
		t.Fatal("replay cycling wrong")
	}
	if r.MaxPerSCN() <= 0 {
		t.Fatal("replay MaxPerSCN")
	}
	if _, err := NewReplay(nil, 3); err == nil {
		t.Fatal("empty replay accepted")
	}
	if _, err := NewReplay(slots, 5); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestSlotValidate(t *testing.T) {
	s := &Slot{Tasks: []*task.Task{{ID: 1}}, Coverage: [][]int{{0, 0}}}
	if err := s.Validate(); err == nil {
		t.Fatal("duplicate coverage accepted")
	}
	s = &Slot{Tasks: []*task.Task{{ID: 1}}, Coverage: [][]int{{5}}}
	if err := s.Validate(); err == nil {
		t.Fatal("out-of-range coverage accepted")
	}
	if (&Slot{}).NumTasks() != 0 {
		t.Fatal("empty slot task count")
	}
}

// BenchmarkSyntheticNext times one paper-scale slot (30 SCNs, ~2000
// tasks) through the pooled NextInto that sim.Run and the serving
// replayer call; steady state allocates nothing.
func BenchmarkSyntheticNext(b *testing.B) {
	g, _ := NewSynthetic(DefaultSyntheticConfig(), rng.New(1))
	var s Slot
	// Grow the arena's coverage rows to their high-water mark first.
	const warm = 64
	for i := 0; i < warm; i++ {
		g.NextInto(i, &s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextInto(warm+i, &s)
	}
}

func TestMultiSlotGeneration(t *testing.T) {
	cfg := SyntheticConfig{SCNs: 3, MinTasks: 30, MaxTasks: 40,
		MultiSlotFrac: 0.5, MaxDuration: 4}
	g, err := NewSynthetic(cfg, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	multi, single := 0, 0
	for slot := 0; slot < 10; slot++ {
		for _, tk := range g.Next(slot).Tasks {
			d := tk.Duration()
			switch {
			case d == 1:
				single++
			case d >= 2 && d <= 4:
				multi++
			default:
				t.Fatalf("duration %d outside [1,4]", d)
			}
		}
	}
	total := multi + single
	frac := float64(multi) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("multi-slot fraction %.2f, want ~0.5", frac)
	}
	// Invalid fractions rejected.
	bad := cfg
	bad.MultiSlotFrac = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	bad = cfg
	bad.MaxDuration = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestCSVDurationRoundTrip(t *testing.T) {
	slots := []*Slot{{
		Tasks: []*task.Task{
			{ID: 1, InputMbit: 10, OutputMbit: 2, DurationSlots: 3},
			{ID: 2, InputMbit: 12, OutputMbit: 3},
		},
		Coverage: [][]int{{0, 1}},
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, slots); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].Tasks[0].Duration() != 3 || back[0].Tasks[1].Duration() != 1 {
		t.Fatalf("durations lost: %d, %d",
			back[0].Tasks[0].Duration(), back[0].Tasks[1].Duration())
	}
}
