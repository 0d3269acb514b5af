package obs

import (
	"math"
	rtmetrics "runtime/metrics"
	"sync"
)

// PolicySnapshot is one sampled view of a learning policy's internal
// state, plus run-level context filled in by the simulator. All slice
// fields are indexed by SCN and owned by the snapshot — implementations
// of Snapshotter copy into them (growing with GrowFloats/GrowInts), never
// alias internal state, so a snapshot stays valid after the policy moves
// on.
type PolicySnapshot struct {
	// Policy is the display name of the sampled policy.
	Policy string `json:"policy"`
	// Slot is the 0-based slot index the sample was taken after.
	Slot int `json:"slot"`
	// CumReward is the run's cumulative compound reward through Slot.
	CumReward float64 `json:"cum_reward"`

	// Gamma, Eta, Delta are the effective schedule values (Theorem 1).
	Gamma float64 `json:"gamma"`
	Eta   float64 `json:"eta"`
	Delta float64 `json:"delta"`

	// Lambda1, Lambda2 are the per-SCN Lagrange multipliers for the QoS
	// floor (1c) and the resource ceiling (1d).
	Lambda1 []float64 `json:"lambda1"`
	Lambda2 []float64 `json:"lambda2"`
	// Entropy is the per-SCN normalized entropy of the hypercube weight
	// distribution: H(softmax(logW)) / ln(F) ∈ [0,1]. 1 means uniform
	// (no learning signal yet), 0 means fully collapsed onto one cell.
	Entropy []float64 `json:"entropy"`
	// CappedCells is the per-SCN size of the Exp3.M capped set S' in the
	// most recent Decide (cells pinned at the probability cap).
	CappedCells []int `json:"capped_cells"`
	// ExplorationMass is the per-SCN softmax weight mass held by cells
	// below the uniform share 1/F — mass that selection can effectively
	// reach only through the γ-mixing exploration term. It decays toward
	// 0 as the weight distribution concentrates.
	ExplorationMass []float64 `json:"exploration_mass"`
	// Owner is the per-SCN owning shard in a serving deployment
	// (internal/serve, at any shard count); empty for offline runs. Filled
	// by the aggregator, not the policy — each partial learner's Snapshot
	// covers only the SCNs it owns, and the serving engine layers the
	// shards' calls into one snapshot before stamping the owner map.
	Owner []int `json:"owner,omitempty"`

	// Runtime holds process-level stats (heap, GC) when sampling is
	// enabled via Options.SampleRuntime.
	Runtime RuntimeStats `json:"runtime"`
}

// Snapshotter is implemented by policies that can expose their internal
// state (core.LFSC). Snapshot must copy into the caller-owned snapshot
// buffers and must not retain the pointer.
type Snapshotter interface {
	Snapshot(into *PolicySnapshot)
}

// SnapshotSink consumes sampled snapshots. The snapshot is only valid for
// the duration of the call (the simulator reuses one buffer), so sinks
// must copy what they keep. Sinks must be safe for concurrent calls:
// RunAll runs policies in parallel against one shared sink.
type SnapshotSink interface {
	OnSnapshot(s *PolicySnapshot)
}

// GrowFloats re-slices *buf to length n, reallocating only on growth, and
// zeroes the content. Snapshot implementations use it so repeated
// sampling into the same snapshot is allocation-free after the first.
func GrowFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	for i := range *buf {
		(*buf)[i] = 0
	}
	return *buf
}

// GrowInts is GrowFloats for int slices.
func GrowInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	for i := range *buf {
		(*buf)[i] = 0
	}
	return *buf
}

// copyInto deep-copies s into dst, reusing dst's slice capacity.
func (s *PolicySnapshot) copyInto(dst *PolicySnapshot) {
	dst.Policy = s.Policy
	dst.Slot = s.Slot
	dst.CumReward = s.CumReward
	dst.Gamma, dst.Eta, dst.Delta = s.Gamma, s.Eta, s.Delta
	dst.Lambda1 = append(dst.Lambda1[:0], s.Lambda1...)
	dst.Lambda2 = append(dst.Lambda2[:0], s.Lambda2...)
	dst.Entropy = append(dst.Entropy[:0], s.Entropy...)
	dst.CappedCells = append(dst.CappedCells[:0], s.CappedCells...)
	dst.ExplorationMass = append(dst.ExplorationMass[:0], s.ExplorationMass...)
	dst.Owner = append(dst.Owner[:0], s.Owner...)
	dst.Runtime = s.Runtime
}

// SnapshotRing keeps the most recent n snapshots (deep copies). It is a
// SnapshotSink; safe for concurrent producers (sampling happens every K
// slots, so the lock is far off the hot path).
type SnapshotRing struct {
	mu   sync.Mutex
	buf  []PolicySnapshot
	next int
	len  int
}

// NewSnapshotRing creates a ring holding the last n snapshots.
func NewSnapshotRing(n int) *SnapshotRing {
	if n <= 0 {
		n = 1
	}
	return &SnapshotRing{buf: make([]PolicySnapshot, n)}
}

// OnSnapshot implements SnapshotSink.
func (r *SnapshotRing) OnSnapshot(s *PolicySnapshot) {
	r.mu.Lock()
	s.copyInto(&r.buf[r.next])
	r.next = (r.next + 1) % len(r.buf)
	if r.len < len(r.buf) {
		r.len++
	}
	r.mu.Unlock()
}

// Snapshots returns the retained snapshots, oldest first. The returned
// slice is freshly allocated; its entries still share slice backing with
// the ring, so treat them as read-only.
func (r *SnapshotRing) Snapshots() []PolicySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PolicySnapshot, 0, r.len)
	start := r.next - r.len
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.len; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// RuntimeStats is the process-level slice of a snapshot, sampled from
// runtime/metrics.
type RuntimeStats struct {
	// HeapBytes is the live heap object size (/memory/classes/heap/objects).
	HeapBytes uint64 `json:"heap_bytes"`
	// GCCycles is the completed GC cycle count.
	GCCycles uint64 `json:"gc_cycles"`
	// GCPauseTotalNS approximates the cumulative stop-the-world pause time
	// (bucket-midpoint sum over the /gc/pauses histogram).
	GCPauseTotalNS float64 `json:"gc_pause_total_ns"`
	// GCPauseP99NS is the approximate 99th-percentile individual pause.
	GCPauseP99NS float64 `json:"gc_pause_p99_ns"`
}

var runtimeSampleNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

// SampleRuntime fills rs from runtime/metrics. Unsupported metrics (older
// runtimes) leave their fields zero. Called every K slots, not per slot,
// so the small per-call sample allocation is irrelevant.
func SampleRuntime(rs *RuntimeStats) {
	samples := make([]rtmetrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	*rs = RuntimeStats{}
	for i := range samples {
		s := &samples[i]
		switch s.Name {
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == rtmetrics.KindUint64 {
				rs.HeapBytes = s.Value.Uint64()
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == rtmetrics.KindUint64 {
				rs.GCCycles = s.Value.Uint64()
			}
		case "/gc/pauses:seconds":
			if s.Value.Kind() == rtmetrics.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				rs.GCPauseTotalNS, rs.GCPauseP99NS = pauseHistStats(h)
			}
		}
	}
}

// pauseHistStats reduces the runtime pause histogram to a total and an
// approximate p99, both in nanoseconds, using bucket midpoints.
func pauseHistStats(h *rtmetrics.Float64Histogram) (totalNS, p99NS float64) {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		mid := (lo + hi) / 2 * 1e9
		totalNS += float64(c) * mid
		if seen < rank && seen+c >= rank {
			p99NS = mid
		}
		seen += c
	}
	return totalNS, p99NS
}

// Options wires the observability layer into a run. A nil *Options (the
// default in sim.Config) disables everything; individual fields opt into
// each facility independently.
type Options struct {
	// Probe records per-phase wall time when non-nil.
	Probe *Probe
	// Registry tracks live per-run progress (slot counts, reward, rates)
	// when non-nil.
	Registry *Registry
	// SnapshotEvery samples the policy state every K slots (0 disables).
	// Only policies implementing Snapshotter are sampled.
	SnapshotEvery int
	// SnapshotSink receives the samples (required for sampling).
	SnapshotSink SnapshotSink
	// SampleRuntime additionally fills Runtime stats into each snapshot.
	SampleRuntime bool
}
