package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lfsc/internal/obs"
	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// obsStack bundles one test's instrumentation so assertions can reach
// the ring/SLO behind the daemon.
type obsStack struct {
	metrics *obs.Metrics
	ring    *obs.SlotRing
	slo     *obs.SLO
}

// withObs enables the full observability stack on a daemon config.
func withObs(shards int) (*obsStack, func(*Config)) {
	st := &obsStack{
		metrics: obs.NewMetrics(),
		ring:    obs.NewSlotRing(64, shards),
		slo:     obs.NewSLO(60, 0.01),
	}
	return st, func(c *Config) {
		c.Shards = shards
		c.Probe = obs.NewProbe()
		c.Metrics = st.metrics
		c.SlotRing = st.ring
		c.SLO = st.slo
	}
}

// TestObsInstrumentedThreeWayIdentity is the observability layer's
// bit-identity contract: a fully instrumented daemon (metrics, slot
// tracing, SLO tracking, probe) earns the hex-float-identical cumulative
// reward of an offline sim.Run — at Shards=1 and Shards=4, daemon side
// and client side. Instrumentation reads clocks and counters; it must
// never touch the learner.
func TestObsInstrumentedThreeWayIdentity(t *testing.T) {
	const T, seed = 250, 42
	sc := testScenario(T, seed)

	simSc := &sim.Scenario{
		Cfg: sim.Config{T: T, Capacity: sc.Capacity, Alpha: sc.Alpha, Beta: sc.Beta, H: sc.H},
		NewGenerator: func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewSynthetic(sc.Synthetic, r)
		},
		EnvCfg: sc.EnvCfg,
	}
	series, err := sim.Run(simSc, sim.LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	offline := 0.0
	for _, r := range series.Reward {
		offline += r
	}

	for _, shards := range []int{1, 4} {
		st, mutate := withObs(shards)
		eng, srv, _ := bootDaemon(t, sc, mutate)
		rep, err := NewReplayer(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Run(shardPoolFor(srv, shards), 0, T, nil); err != nil {
			t.Fatal(err)
		}
		eng.Stop()
		srv.Close()
		if daemon := eng.CumReward(); daemon != offline {
			t.Errorf("shards=%d: instrumented daemon cum reward %x != offline sim %x (%.10f vs %.10f)",
				shards, daemon, offline, daemon, offline)
		}
		if client := rep.CumReward(); client != offline {
			t.Errorf("shards=%d: client cum reward %x != offline sim %x", shards, client, offline)
		}
		if got := st.ring.Published(); got != T {
			t.Errorf("shards=%d: trace ring published %d records, want %d", shards, got, T)
		}
		if rep := st.slo.Report(); rep.Requests == 0 {
			t.Errorf("shards=%d: SLO tracker saw no requests", shards)
		}
	}
}

// TestServeWireZeroAllocObs extends the zero-allocation pin to the
// instrumented daemon: with metrics, slot tracing, SLO tracking, and the
// probe all enabled, steady-state step handling still allocates nothing,
// in JSON and in binary frames, at Shards 1, 2 and 4.
// The instrumentation publishes via atomic stores into pre-allocated
// records; an allocation here means it leaked onto the wire path.
func TestServeWireZeroAllocObs(t *testing.T) {
	pinZeroAlloc(t, func(c *Config, shards int) {
		_, mutate := withObs(shards)
		mutate(c)
	})
}

// promMetrics is the parsed form of one /metrics scrape: family types
// plus every sample keyed by its full series name (labels included).
type promMetrics struct {
	types  map[string]string
	values map[string]float64
}

// parseProm is a deliberately small Prometheus text-format (0.0.4)
// parser used to validate the exposition from the outside: HELP/TYPE
// ordering, one TYPE per family, every sample attributable to a declared
// family, histogram buckets cumulative with +Inf == _count.
func parseProm(t *testing.T, body string) *promMetrics {
	t.Helper()
	p := &promMetrics{types: map[string]string{}, values: map[string]float64{}}
	helped := map[string]bool{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Fatalf("line %d: bad TYPE: %q", ln+1, line)
			}
			if !helped[name] {
				t.Fatalf("line %d: TYPE for %s before its HELP", ln+1, name)
			}
			if _, dup := p.types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			p.types[name] = typ
			continue
		}
		// Sample line: name{labels} value | name value.
		series, valStr, found := strings.Cut(line, " ")
		if !found {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
		}
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && p.types[base] == "histogram" {
				fam = base
				break
			}
		}
		if _, ok := p.types[fam]; !ok {
			t.Fatalf("line %d: sample %s has no declared family", ln+1, series)
		}
		if _, dup := p.values[series]; dup {
			t.Fatalf("line %d: duplicate series %s", ln+1, series)
		}
		p.values[series] = val
	}
	p.checkHistograms(t)
	return p
}

// checkHistograms verifies every histogram family's buckets are
// cumulative (non-decreasing in le order) and +Inf matches _count.
func (p *promMetrics) checkHistograms(t *testing.T) {
	t.Helper()
	type bkt struct {
		le  float64
		val float64
	}
	buckets := map[string][]bkt{} // series-without-le → buckets
	for series, val := range p.values {
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		base, ok := strings.CutSuffix(name, "_bucket")
		if !ok || p.types[base] != "histogram" {
			continue
		}
		i := strings.LastIndex(series, `le="`)
		if i < 0 {
			t.Fatalf("bucket series without le label: %s", series)
		}
		leStr := series[i+len(`le="`):]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le := 0.0
		if leStr == "+Inf" {
			le = float64(1 << 62)
		} else {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				t.Fatalf("bad le %q in %s", leStr, series)
			}
		}
		key := base + series[len(name):i] // family + labels up to the le pair
		buckets[key] = append(buckets[key], bkt{le, val})
	}
	for key, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for i := 1; i < len(bs); i++ {
			if bs[i].val < bs[i-1].val {
				t.Fatalf("%s: buckets not cumulative: %v", key, bs)
			}
		}
	}
}

// get fetches a URL and returns its body.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// awaitSlots waits until the engine has finished its first T slots. A
// replay's last request is a report (/v1/report or Engine.Report), which
// returns once the slot it completes has finished, so after a replay it
// returns at once; it still fails an engine that fell short.
func awaitSlots(t testing.TB, eng *Engine, T int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for eng.Slot() < T {
		if time.Now().After(deadline) {
			t.Fatalf("engine at slot %d, want %d", eng.Slot(), T)
		}
		time.Sleep(time.Millisecond)
	}
	// finishSlot publishes the slot's trace record after advancing the
	// counter, under mu; taking mu once waits that out.
	eng.mu.Lock()
	eng.mu.Unlock() //nolint:staticcheck // empty critical section: a barrier
}

// TestObsSmokeScrape is the scrape-twice smoke behind `make obs-smoke`:
// boot a sharded instrumented daemon, serve real traffic, scrape
// /metrics twice with traffic in between, and require (1) both scrapes
// parse as well-formed expositions with identical family sets, and
// (2) the serving counters to have advanced monotonically between them.
func TestObsSmokeScrape(t *testing.T) {
	const T, seed, shards = 80, 21, 4
	sc := testScenario(T, seed)
	_, mutate := withObs(shards)
	eng, srv, _ := bootDaemon(t, sc, mutate)
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	conn := shardPoolFor(srv, shards)
	if _, err := rep.Run(conn, 0, T/2, nil); err != nil {
		t.Fatal(err)
	}
	first := parseProm(t, get(t, "http://"+srv.Addr()+"/metrics"))
	if _, err := rep.Run(conn, T/2, T, nil); err != nil {
		t.Fatal(err)
	}
	awaitSlots(t, eng, T)
	second := parseProm(t, get(t, "http://"+srv.Addr()+"/metrics"))
	eng.Stop()

	// Exposition shape is stable across scrapes: same families, same types.
	if len(first.types) != len(second.types) {
		t.Fatalf("family set changed between scrapes: %d vs %d", len(first.types), len(second.types))
	}
	for name, typ := range first.types {
		if second.types[name] != typ {
			t.Fatalf("family %s changed: %q vs %q", name, typ, second.types[name])
		}
	}
	// Counters are monotone; the serving ones must have advanced.
	for series, v1 := range first.values {
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if first.types[name] != "counter" {
			continue
		}
		if v2 := second.values[series]; v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", series, v1, v2)
		}
	}
	for _, series := range []string{
		"lfsc_slots_served_total",
		`lfsc_tasks_total{stage="submitted"}`,
		`lfsc_tasks_total{stage="reported"}`,
		"lfsc_slot_trace_published_total",
	} {
		if second.values[series] <= first.values[series] {
			t.Errorf("%s did not advance under traffic: %v -> %v",
				series, first.values[series], second.values[series])
		}
	}
	// The per-shard families cover every shard.
	for k := 0; k < shards; k++ {
		if _, ok := second.values[fmt.Sprintf(`lfsc_shard_owned_scns{shard="%d"}`, k)]; !ok {
			t.Errorf("no owned-scns series for shard %d", k)
		}
	}
	if second.values["lfsc_slot"] != T {
		t.Errorf("lfsc_slot = %v, want %d", second.values["lfsc_slot"], T)
	}
}

// TestSlotsEndpointAndStatus covers the /lfsc/slots trace surface and
// the extended /lfsc/status: SLO line, p999 latency column, and
// per-shard shed + timing columns.
func TestSlotsEndpointAndStatus(t *testing.T) {
	const T, seed, shards = 40, 7, 4
	sc := testScenario(T, seed)
	_, mutate := withObs(shards)
	eng, srv, _ := bootDaemon(t, sc, mutate)
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Run(shardPoolFor(srv, shards), 0, T, nil); err != nil {
		t.Fatal(err)
	}
	awaitSlots(t, eng, T)

	var body struct {
		Published uint64         `json:"published"`
		Spans     []obs.SlotSpan `json:"spans"`
	}
	if err := json.Unmarshal([]byte(get(t, "http://"+srv.Addr()+"/lfsc/slots")), &body); err != nil {
		t.Fatal(err)
	}
	if body.Published != T {
		t.Fatalf("published %d slot records, want %d", body.Published, T)
	}
	if len(body.Spans) != T {
		t.Fatalf("snapshot holds %d spans, want %d (ring size 64 ≥ T)", len(body.Spans), T)
	}
	last := body.Spans[len(body.Spans)-1]
	if last.Slot != T-1 || last.Seq != T-1 {
		t.Fatalf("last span = slot %d seq %d, want %d", last.Slot, last.Seq, T-1)
	}
	for _, s := range body.Spans {
		if s.Tasks <= 0 || s.Assigned <= 0 || s.Reported <= 0 {
			t.Fatalf("span %d has empty slot accounting: %+v", s.Seq, s)
		}
		if s.DecideNS == 0 || s.ObserveNS == 0 {
			t.Fatalf("span %d missing stage durations: %+v", s.Seq, s)
		}
		if len(s.ShardDecideNS) != shards || len(s.ShardObserveNS) != shards {
			t.Fatalf("span %d shard breakdown %d/%d, want %d", s.Seq, len(s.ShardDecideNS), len(s.ShardObserveNS), shards)
		}
	}

	status := get(t, "http://"+srv.Addr()+"/lfsc/status")
	eng.Stop()
	if !strings.Contains(status, "slo[60s]: n=") || !strings.Contains(status, "budget 1.00%") {
		t.Fatalf("/lfsc/status missing SLO line:\n%s", status)
	}
	if !strings.Contains(status, "p999=") {
		t.Fatalf("/lfsc/status missing p999 column:\n%s", status)
	}
	for k := 0; k < shards; k++ {
		want := fmt.Sprintf("shard %d:", k)
		if !strings.Contains(status, want) {
			t.Fatalf("/lfsc/status missing %q:\n%s", want, status)
		}
	}
	if !strings.Contains(status, "shed 0  last decide") {
		t.Fatalf("/lfsc/status shard lines missing shed/timing columns:\n%s", status)
	}
}

// TestConcurrentScrapeUnderLoad hammers every observability surface
// while the sharded engine serves batched lockstep traffic — the
// torn-read test for the whole scrape plane. Under `make test-race` this
// is also the data-race proof for the metrics registry, the slot ring,
// and the SLO tracker against live serving.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	const T, seed, shards = 120, 13, 4
	sc := testScenario(T, seed)
	_, mutate := withObs(shards)
	eng, srv, _ := bootDaemon(t, sc, mutate)
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/lfsc/slots", "/lfsc/status", "/v1/stats"} {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(url)
					if err != nil {
						continue // daemon shutting down
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}("http://" + srv.Addr() + path)
		}
	}

	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Run(shardPoolFor(srv, shards), 0, T, nil); err != nil {
		t.Fatal(err)
	}
	awaitSlots(t, eng, T)
	// Final scrapes after the load must still parse and be consistent.
	final := parseProm(t, get(t, "http://"+srv.Addr()+"/metrics"))
	if final.values["lfsc_slot"] != T {
		t.Errorf("lfsc_slot = %v after load, want %d", final.values["lfsc_slot"], T)
	}
	var slots struct {
		Published uint64 `json:"published"`
	}
	if err := json.Unmarshal([]byte(get(t, "http://"+srv.Addr()+"/lfsc/slots")), &slots); err != nil {
		t.Fatal(err)
	}
	if slots.Published != T {
		t.Errorf("trace ring published %d, want %d", slots.Published, T)
	}
	close(stop)
	wg.Wait()
	eng.Stop()

	// The scrape load must not have perturbed the computation: same
	// cumulative reward as an unscraped daemon.
	eng2, srv2, _ := bootDaemon(t, sc, func(c *Config) { c.Shards = shards })
	defer srv2.Close()
	rep2, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep2.Run(shardPoolFor(srv2, shards), 0, T, nil); err != nil {
		t.Fatal(err)
	}
	eng2.Stop()
	if eng.CumReward() != eng2.CumReward() {
		t.Fatalf("scraped run diverged from bare run: %x vs %x", eng.CumReward(), eng2.CumReward())
	}
}
