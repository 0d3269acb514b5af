package serve

import (
	"fmt"
	"sort"
)

// routerVNodes is the number of virtual ring points per shard. 128 keeps
// the maximum/minimum ownership ratio close to 1 for the SCN counts the
// repo targets (tens to thousands) while the ring stays small enough that
// building and searching it is negligible.
const routerVNodes = 128

// maxShards bounds the shard count, far past any useful fan-out, so a
// corrupt checkpoint manifest cannot make Restore build a huge ring.
const maxShards = 1 << 10

// Router maps SCN indices to shards by consistent hashing: each shard
// contributes routerVNodes points on a 64-bit ring, and an SCN belongs to
// the first point at or clockwise of its own hash. The mapping depends
// only on (scn, shard count) — never on boot order, time, or map
// iteration — so a restarted daemon reproduces it exactly, which the
// checkpoint layout relies on. Consistency is the seam for the
// ROADMAP's multi-process router mode: moving from N to N+1 shards
// relocates only ~1/(N+1) of the SCNs.
type Router struct {
	shards int
	hashes []uint64 // ring point hashes, ascending
	owners []int32  // ring point owners, parallel to hashes
}

// NewRouter builds the ring for the given shard count (≥ 1).
func NewRouter(shards int) *Router {
	if shards < 1 {
		panic(fmt.Sprintf("serve: router needs ≥ 1 shard, got %d", shards))
	}
	type point struct {
		hash  uint64
		shard int32
	}
	pts := make([]point, 0, shards*routerVNodes)
	for k := 0; k < shards; k++ {
		base := splitmix64(uint64(k) + 1)
		for v := 0; v < routerVNodes; v++ {
			pts = append(pts, point{hash: splitmix64(base + uint64(v)), shard: int32(k)})
		}
	}
	// Ties (astronomically unlikely) break to the lower shard index so the
	// ring order is a pure function of the shard count.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].shard < pts[j].shard
	})
	r := &Router{
		shards: shards,
		hashes: make([]uint64, len(pts)),
		owners: make([]int32, len(pts)),
	}
	for i, p := range pts {
		r.hashes[i] = p.hash
		r.owners[i] = p.shard
	}
	return r
}

// Shards returns the shard count the ring was built for.
func (r *Router) Shards() int { return r.shards }

// Shard returns the shard owning SCN scn: binary search for the first
// ring point at or after the SCN's hash, wrapping to the first point.
func (r *Router) Shard(scn int) int {
	// A distinct avalanche domain from the vnode points (extra splitmix
	// round) so SCN keys never collide with ring points systematically.
	h := splitmix64(splitmix64(uint64(scn)) ^ 0xd1b54a32d192ed03)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return int(r.owners[i])
}

// OwnerMap returns owner[m] = Shard(m) for every SCN in [0, scns), plus
// the inverse grouping ownedOf[k] (ascending SCN lists, possibly empty for
// a shard no SCN hashes to).
func (r *Router) OwnerMap(scns int) (owner []int, ownedOf [][]int) {
	owner = make([]int, scns)
	ownedOf = make([][]int, r.shards)
	for m := 0; m < scns; m++ {
		k := r.Shard(m)
		owner[m] = k
		ownedOf[k] = append(ownedOf[k], m)
	}
	return owner, ownedOf
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-avalanched
// 64-bit mixing function (public-domain constants from Steele et al.).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Conn is the client surface the replayer drives — satisfied by *Client
// (one connection) and *ShardPool (shard-aware connection fan-out).
type Conn interface {
	SubmitInto(req *SubmitRequest, resp *SubmitResponse) error
	Report(req *ReportRequest) (*ReportResponse, error)
	StepInto(repSlot int, reports []TaskReport, tasks []TaskSpec, close bool, resp *StepResponse) error
}

// ShardPool fans a load generator's requests over per-shard connections:
// each submission rides the connection of the shard owning its first
// task's home SCN, so a shard's traffic keeps connection affinity (and,
// once the multi-process router mode lands, would land on that shard's
// process directly). Reports chase the connection that carried the slot's
// submission. Not safe for concurrent use by multiple goroutines driving
// interleaved slots — like the Replayer it serves, it is a per-worker
// object.
type ShardPool struct {
	router *Router
	conns  []*Client
	last   *Client
}

// NewShardPool builds one client per shard, all targeting addr.
func NewShardPool(addr string, shards int) *ShardPool {
	p := &ShardPool{router: NewRouter(shards), conns: make([]*Client, shards)}
	for k := range p.conns {
		p.conns[k] = NewClient(addr)
	}
	p.last = p.conns[0]
	return p
}

// pick selects (and remembers) the connection for a submission.
func (p *ShardPool) pick(tasks []TaskSpec) *Client {
	c := p.conns[0]
	if len(tasks) > 0 && len(tasks[0].SCNs) > 0 {
		c = p.conns[p.router.Shard(tasks[0].SCNs[0])]
	}
	p.last = c
	return c
}

// SubmitInto implements Conn.
func (p *ShardPool) SubmitInto(req *SubmitRequest, resp *SubmitResponse) error {
	return p.pick(req.Tasks).SubmitInto(req, resp)
}

// Report implements Conn: outcome reports follow the connection that
// submitted the open slot.
func (p *ShardPool) Report(req *ReportRequest) (*ReportResponse, error) {
	return p.last.Report(req)
}

// StepInto implements Conn.
func (p *ShardPool) StepInto(repSlot int, reports []TaskReport, tasks []TaskSpec, close bool, resp *StepResponse) error {
	return p.pick(tasks).StepInto(repSlot, reports, tasks, close, resp)
}

// Stats fetches the daemon's counters over any pool connection.
func (p *ShardPool) Stats() (*Stats, error) { return p.conns[0].Stats() }

// ConnStats sums connection churn over the pool.
func (p *ShardPool) ConnStats() (created, reused uint64) {
	for _, c := range p.conns {
		cr, re := c.ConnStats()
		created += cr
		reused += re
	}
	return created, reused
}
