package trace

import (
	"fmt"
	"sync"

	"lfsc/internal/task"
)

// GenState is an opaque generator snapshot produced by SnapshotState and
// consumed by RestoreState of the same generator type.
type GenState interface{}

// Snapshottable is a Generator whose full state (RNG streams, counters,
// mobility state) can be captured and restored, so that any suffix of its
// slot sequence can be regenerated bit-identically from a snapshot taken at
// the right position. All in-tree generators implement it; a SharedTrace
// over a Snapshottable generator can evict materialized chunks and rebuild
// them on demand, keeping memory bounded at large horizons.
type Snapshottable interface {
	Generator
	// SnapshotState captures the current generator state (i.e. the state
	// from which the next un-generated slot would be drawn).
	SnapshotState() GenState
	// RestoreState rewinds the generator to a previously captured state.
	RestoreState(st GenState)
}

// SharedTraceConfig parameterises a SharedTrace.
type SharedTraceConfig struct {
	// ChunkSlots is the materialization granularity (default 64 when zero).
	ChunkSlots int
	// Readers is the number of replay passes that will be taken over the
	// trace (e.g. the number of policies in a RunAll). Chunks are freed
	// permanently once every declared reader has moved past them.
	Readers int
	// MaxCachedChunks bounds the number of chunks held in memory at once
	// (default 8 when zero; use a negative value for an unbounded cache).
	// The bound is enforced only when the generator is Snapshottable —
	// evicted chunks are regenerated bit-identically from snapshots taken
	// at chunk boundaries. With concurrent readers advancing together, or a
	// cache covering the horizon, generation happens exactly once per slot.
	MaxCachedChunks int
}

func (c SharedTraceConfig) chunk() int {
	if c.ChunkSlots <= 0 {
		return 64
	}
	return c.ChunkSlots
}

func (c SharedTraceConfig) maxCached() int {
	if c.MaxCachedChunks == 0 {
		return 8
	}
	return c.MaxCachedChunks
}

// SharedTrace materializes a generator's slot sequence once per (scenario,
// seed) so that several runs — one per policy, under common random numbers —
// replay identical workload without regenerating it per run. Slots are
// materialized in chunks on first demand; a chunk is freed once all declared
// readers have passed it, and may be evicted earlier (and later rebuilt from
// a snapshot) to keep at most MaxCachedChunks in memory. All generator
// access is serialized under an internal mutex, so readers are safe to drive
// from concurrent goroutines (the parallel.ForDynamic fan-out in sim.RunAll).
type SharedTrace struct {
	mu      sync.Mutex
	gen     Generator
	into    IntoGenerator // non-nil when gen supports pooled generation
	snap    Snapshottable // non-nil when gen supports snapshots
	horizon int
	chunkSz int
	maxCach int
	readers int

	scns   int
	maxPer int

	chunks map[int]*traceChunk
	snaps  []GenState // snaps[k] = generator state before chunk k; len built+1
	passes []int      // outstanding reader passes per chunk
	built  int        // frontier: chunks generated at least once
	made   int        // readers handed out so far

	genBuf Slot // scratch slot for pooled materialization
}

// traceChunk is one materialized run of consecutive slots. Slots are
// immutable after materialization; active counts readers currently inside —
// only inactive chunks are ever evicted, so a slot pointer handed to a
// reader stays valid until that reader moves on.
type traceChunk struct {
	slots  []Slot
	active int
}

// NewSharedTrace materializes gen's first `horizon` slots lazily. The
// generator must be exclusively owned by the SharedTrace from here on.
func NewSharedTrace(gen Generator, horizon int, cfg SharedTraceConfig) (*SharedTrace, error) {
	if gen == nil {
		return nil, fmt.Errorf("trace: nil generator")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("trace: non-positive horizon %d", horizon)
	}
	if cfg.Readers <= 0 {
		return nil, fmt.Errorf("trace: shared trace needs a positive reader count, got %d", cfg.Readers)
	}
	st := &SharedTrace{
		gen:     gen,
		horizon: horizon,
		chunkSz: cfg.chunk(),
		maxCach: cfg.maxCached(),
		readers: cfg.Readers,
		scns:    gen.SCNs(),
		maxPer:  gen.MaxPerSCN(),
		chunks:  make(map[int]*traceChunk),
	}
	st.into, _ = gen.(IntoGenerator)
	st.snap, _ = gen.(Snapshottable)
	n := (horizon + st.chunkSz - 1) / st.chunkSz
	st.passes = make([]int, n)
	for k := range st.passes {
		st.passes[k] = cfg.Readers
	}
	if st.snap != nil {
		st.snaps = append(st.snaps, st.snap.SnapshotState())
	}
	return st, nil
}

// Horizon returns the number of slots the trace covers.
func (st *SharedTrace) Horizon() int { return st.horizon }

// SCNs mirrors the underlying generator.
func (st *SharedTrace) SCNs() int { return st.scns }

// MaxPerSCN mirrors the underlying generator. It delegates to the
// generator's declared bound rather than measuring materialized slots: the
// bound feeds the learner's parameter schedule (core.Config.KMax) and must
// not depend on which slots happen to have been generated.
func (st *SharedTrace) MaxPerSCN() int { return st.maxPer }

// NewReader hands out the next replay pass over slots [0, Horizon). It fails
// once the declared reader budget is exhausted — the pass accounting that
// frees chunks relies on the exact count.
func (st *SharedTrace) NewReader() (*TraceReader, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.made >= st.readers {
		return nil, fmt.Errorf("trace: shared trace reader budget exhausted (%d declared)", st.readers)
	}
	st.made++
	return &TraceReader{st: st, cur: -1}, nil
}

// acquire returns chunk k, materializing it if needed, and marks the caller
// as inside it. Called with st.mu held.
func (st *SharedTrace) acquire(k int) (*traceChunk, error) {
	if k < 0 || k >= len(st.passes) {
		return nil, fmt.Errorf("trace: chunk %d outside horizon %d", k, st.horizon)
	}
	ch := st.chunks[k]
	if ch == nil {
		var err error
		if ch, err = st.materialize(k); err != nil {
			return nil, err
		}
		st.chunks[k] = ch
	}
	ch.active++
	st.evict(k)
	return ch, nil
}

// materialize generates chunk k's slots. For k == built the generator is
// already positioned (or is restored to the frontier snapshot); for an
// evicted chunk k < built the generator is rewound to the snapshot taken at
// that chunk boundary, which reproduces the slots bit-identically. Called
// with st.mu held.
func (st *SharedTrace) materialize(k int) (*traceChunk, error) {
	if k > st.built {
		// Readers advance strictly forward from slot 0, so demand reaches
		// the frontier before passing it; build intermediate chunks too.
		for j := st.built; j < k; j++ {
			ch, err := st.materialize(j)
			if err != nil {
				return nil, err
			}
			// Cache it (uncached intermediate chunks would be regenerated
			// on demand anyway when snapshottable); evict keeps the bound.
			st.chunks[j] = ch
			st.evict(-1)
		}
	}
	if k < st.built {
		if st.snap == nil {
			return nil, fmt.Errorf("trace: chunk %d evicted and generator is not snapshottable", k)
		}
		st.snap.RestoreState(st.snaps[k])
	} else if st.snap != nil {
		// Frontier build: position explicitly so interleaved regeneration
		// of earlier chunks cannot leave the generator mid-stream.
		st.snap.RestoreState(st.snaps[k])
	}
	lo := k * st.chunkSz
	hi := lo + st.chunkSz
	if hi > st.horizon {
		hi = st.horizon
	}
	ch := &traceChunk{slots: make([]Slot, hi-lo)}
	for t := lo; t < hi; t++ {
		var src *Slot
		if st.into != nil {
			st.into.NextInto(t, &st.genBuf)
			src = &st.genBuf
		} else {
			src = st.gen.Next(t)
		}
		compactSlot(&ch.slots[t-lo], src)
	}
	if k == st.built {
		st.built++
		if st.snap != nil {
			st.snaps = append(st.snaps, st.snap.SnapshotState())
		}
	}
	return ch, nil
}

// release marks the caller as done with chunk k for this pass. Called with
// st.mu held.
func (st *SharedTrace) release(k int, ch *traceChunk) {
	if ch != nil {
		ch.active--
	}
	st.passes[k]--
	if st.passes[k] <= 0 {
		if c := st.chunks[k]; c != nil && c.active == 0 {
			delete(st.chunks, k) // every declared pass done: free permanently
		}
		if k < len(st.snaps) {
			st.snaps[k] = nil // never regenerated again
		}
	}
}

// evict drops inactive cached chunks until the cache bound holds, preferring
// high indices (the next pass restarts from slot 0, so low chunks stay
// warm). keep is exempted. Only snapshottable traces evict — others could
// not rebuild. Called with st.mu held.
func (st *SharedTrace) evict(keep int) {
	if st.snap == nil || st.maxCach < 0 {
		return
	}
	for len(st.chunks) > st.maxCach {
		victim := -1
		for k, ch := range st.chunks {
			if k != keep && ch.active == 0 && k > victim {
				victim = k
			}
		}
		if victim < 0 {
			return // everything active: over-budget but can't evict
		}
		delete(st.chunks, victim)
	}
}

// compactSlot deep-copies src into dst using flat backing arrays (one task
// array, one coverage backing) so a materialized slot costs O(1) allocations
// instead of one per task.
func compactSlot(dst, src *Slot) {
	tasks := make([]task.Task, len(src.Tasks))
	ptrs := make([]*task.Task, len(src.Tasks))
	for i, tk := range src.Tasks {
		tasks[i] = *tk
		ptrs[i] = &tasks[i]
	}
	total := 0
	for _, row := range src.Coverage {
		total += len(row)
	}
	backing := make([]int, 0, total)
	cov := make([][]int, len(src.Coverage))
	for m, row := range src.Coverage {
		start := len(backing)
		backing = append(backing, row...)
		cov[m] = backing[start:len(backing):len(backing)]
	}
	dst.Tasks = ptrs
	dst.Coverage = cov
}

// TraceReader is one replay pass over a SharedTrace. It implements
// Generator, so sim.Run can consume it in place of a live generator; slots
// it returns are read-only and shared across readers. Call Close when the
// pass ends (Run does this) so chunk accounting can free memory; a reader
// that consumed its full horizon is closed implicitly by its last Next.
type TraceReader struct {
	st     *SharedTrace
	cur    int // current chunk index; -1 before the first Next
	chunk  *traceChunk
	closed bool
}

// Next implements Generator. t must be non-decreasing across calls (the
// simulation loop drives it strictly forward).
func (r *TraceReader) Next(t int) *Slot {
	st := r.st
	k := t / st.chunkSz
	if r.closed {
		panic("trace: Next on closed TraceReader")
	}
	if k != r.cur {
		if k < r.cur {
			panic(fmt.Sprintf("trace: TraceReader moved backwards (chunk %d after %d)", k, r.cur))
		}
		st.mu.Lock()
		if r.cur >= 0 {
			st.release(r.cur, r.chunk)
		}
		// Chunks skipped over (possible only if a caller jumps t) still
		// consume this reader's pass.
		for j := r.cur + 1; j < k; j++ {
			st.release(j, nil)
		}
		ch, err := st.acquire(k)
		st.mu.Unlock()
		if err != nil {
			panic(err) // Generator.Next has no error path; misuse only
		}
		r.cur, r.chunk = k, ch
	}
	s := &r.chunk.slots[t-k*st.chunkSz]
	if t == st.horizon-1 {
		r.Close()
	}
	return s
}

// SCNs implements Generator.
func (r *TraceReader) SCNs() int { return r.st.scns }

// MaxPerSCN implements Generator.
func (r *TraceReader) MaxPerSCN() int { return r.st.maxPer }

// Close releases the reader's pass over every chunk it has not yet passed.
// Idempotent; safe on partially consumed readers.
func (r *TraceReader) Close() {
	if r.closed {
		return
	}
	r.closed = true
	st := r.st
	st.mu.Lock()
	if r.cur >= 0 {
		st.release(r.cur, r.chunk)
	}
	for j := r.cur + 1; j < len(st.passes); j++ {
		st.release(j, nil)
	}
	st.mu.Unlock()
	r.chunk = nil
}
