package bgp

import (
	"math"
	"math/rand"

	"bestofboth/internal/topology"
)

// Cost-model-driven shard partitioning.
//
// PlanShards originally cut the BFS node order into equal-COUNT spans.
// Event load per speaker is nowhere near uniform: a transit hub with
// hundreds of sessions processes orders of magnitude more deliveries and
// MRAI timers than a stub, so equal-count spans leave a ~1.4x max/mean
// event imbalance at 8 shards — and under phase-barrier rounds the slowest
// shard gates every round, capping parallel speedup well below N.
//
// The partitioner here keeps the BFS layout (locality keeps cut edges few)
// but balances WORK, not node count:
//
//  1. weigh each speaker with a static cost model (sublinear in degree,
//     with a relay bonus for CDN site nodes' first-hop neighbors; see
//     StaticSpeakerWeights);
//  2. cut the BFS order into weighted-balanced spans;
//  3. run a bounded deterministic KL/FM-style refinement: single-node
//     moves across shard boundaries that first reduce the max shard
//     weight, then reduce the delay-weighted cut size without breaking
//     balance. Cutting a low-delay edge shrinks the barrier lookahead
//     window (see lookahead), so cut costs are delay-weighted: the cheaper
//     the edge's latency, the more expensive it is to cut.
//
// Every step is a pure function of (topology, n, seed): iteration is in
// node-ID/shard-index order and exact ties break on a seeded hash,
// so equal inputs always yield the same assignment.

const (
	// degreeScale scales the sqrt-degree term of the static cost model (see
	// StaticSpeakerWeights); only its ratio to the +1 floor matters.
	degreeScale = 8.0
	// hypergiantScale damps hypergiant weights: valley-free export policy
	// makes them route sinks, so their enormous session fan-in translates
	// into very little churn (measured ~0.12 events/session at paper scale
	// versus ~2.4–13.6 for every other class).
	hypergiantScale = 0.15
	// relayBonus is the flat extra weight of a CDN site's first-hop
	// neighbors, which relay every origination and failover wave into the
	// core.
	relayBonus = 4.0
	// balanceSlack bounds how far above the ideal mean a shard's weight may
	// grow during cut refinement: moves may trade balance for cut size only
	// within this factor. Kept tight — the slowest shard gates every barrier
	// round, so predicted imbalance conceded here is lost speedup, and the
	// cost model's residual error stacks on top of it.
	balanceSlack = 1.03
	// balanceMovesPerShard bounds the balance phase: at most this many
	// single-node moves per shard. Balance converges in far fewer moves on
	// real topologies; the cap keeps the worst case O(moves * nodes).
	balanceMovesPerShard = 64
	// cutPasses bounds the cut-reduction phase to this many full sweeps
	// over the nodes in ID order.
	cutPasses = 2
	// cutDelayPenalty scales how much more expensive the minimum-delay edge
	// is to cut than the maximum-delay edge. Penalizing low-delay cut edges
	// keeps the lookahead window — min cut-edge delay + ProcMin — wide, so
	// barrier rounds stay coarse.
	cutDelayPenalty = 3.0
)

// StaticSpeakerWeights estimates per-speaker work from topology alone. The
// estimate only needs to be proportionally right — PlanShards balances
// ratios, not absolute costs.
//
// The model is w = 1 + degreeScale·√degree, not linear in degree:
// valley-free export policy makes per-speaker event counts strongly
// sublinear in session count. Measured against the paper-scale reference
// converge, events-per-√session is nearly constant (~12–23) across every
// class except hypergiants (route sinks, damped by hypergiantScale), while
// events-per-session spans two orders of magnitude. CDN site nodes'
// first-hop neighbors get a flat relay bonus: every origination and
// failover wave funnels through them.
func StaticSpeakerWeights(topo *topology.Topology) []float64 {
	w := make([]float64, topo.Len())
	for _, n := range topo.Nodes {
		scale := degreeScale
		if n.Class == topology.ClassHypergiant {
			scale = hypergiantScale
		}
		w[n.ID] = 1 + scale*math.Sqrt(float64(len(n.Adj)))
	}
	for _, n := range topo.Nodes {
		if n.Class == topology.ClassCDN {
			for _, adj := range n.Adj {
				w[adj.To] += relayBonus
			}
		}
	}
	return w
}

// PlanShards deterministically partitions the topology's speakers into n
// shards under the static cost model: BFS layout from a seeded start node,
// weighted-balanced span cut, bounded refinement (see the package comment
// above). Equal (topo, n, seed) always yields the same assignment.
func PlanShards(topo *topology.Topology, n int, seed int64) []int {
	assign := make([]int, topo.Len())
	if n <= 1 || topo.Len() == 0 {
		return assign
	}
	w := StaticSpeakerWeights(topo)
	order := bfsOrder(topo, seed)
	if len(order) <= n {
		// Fewer nodes than shards: one node per shard, trailing shards stay
		// empty. Refinement has nothing to balance.
		for i, id := range order {
			assign[id] = i
		}
		return assign
	}
	cutSpans(order, w, n, assign)
	refine(topo, w, assign, n, seed)
	return assign
}

// bfsOrder lays the nodes out breadth-first from a seeded start node,
// restarting from the lowest unvisited ID for each disconnected component.
func bfsOrder(topo *topology.Topology, seed int64) []topology.NodeID {
	order := make([]topology.NodeID, 0, topo.Len())
	visited := make([]bool, topo.Len())
	queue := make([]topology.NodeID, 0, topo.Len())
	rng := rand.New(rand.NewSource(seed))
	start := topology.NodeID(rng.Intn(topo.Len()))
	for len(order) < topo.Len() {
		if !visited[start] {
			visited[start] = true
			queue = append(queue, start)
		}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			order = append(order, id)
			for _, adj := range topo.Node(id).Adj {
				if !visited[adj.To] {
					visited[adj.To] = true
					queue = append(queue, adj.To)
				}
			}
		}
		// Disconnected remainder: restart from the lowest unvisited ID.
		for i := range visited {
			if !visited[i] {
				start = topology.NodeID(i)
				break
			}
		}
	}
	return order
}

// cutSpans cuts the BFS order into n contiguous spans of near-equal total
// weight: shard k closes once its cumulative weight reaches k+1 ideal
// shares, or once only enough nodes remain to give each later shard one.
func cutSpans(order []topology.NodeID, w []float64, n int, assign []int) {
	var total float64
	for _, id := range order {
		total += w[id]
	}
	k := 0
	var cum float64
	for i, id := range order {
		assign[id] = k
		cum += w[id]
		if k < n-1 {
			remNodes := len(order) - i - 1
			remShards := n - 1 - k
			if remNodes <= remShards || cum >= total*float64(k+1)/float64(n) {
				k++
			}
		}
	}
}

// refine runs the bounded deterministic improvement phases over an initial
// assignment: balance (shrink the heaviest shard), cut reduction (shrink
// the delay-weighted cut without breaking balance), then a final balance
// pass to claw back the slack the cut phase was allowed to spend.
func refine(topo *topology.Topology, w []float64, assign []int, n int, seed int64) {
	r := newRefiner(topo, w, assign, n, seed)
	r.balance()
	r.reduceCut()
	r.balance()
}

// refiner carries the incremental state of the refinement phases.
type refiner struct {
	topo   *topology.Topology
	w      []float64
	assign []int
	n      int
	seed   int64
	shardW []float64 // total weight per shard
	shardN []int     // node count per shard
	total  float64

	// Delay normalization for cut costs, over every edge in the topology.
	dMin, dMax float64
}

func newRefiner(topo *topology.Topology, w []float64, assign []int, n int, seed int64) *refiner {
	r := &refiner{
		topo: topo, w: w, assign: assign, n: n, seed: seed,
		shardW: make([]float64, n), shardN: make([]int, n),
		dMin: math.Inf(1), dMax: math.Inf(-1),
	}
	for _, node := range topo.Nodes {
		r.shardW[assign[node.ID]] += w[node.ID]
		r.shardN[assign[node.ID]]++
		r.total += w[node.ID]
		for _, adj := range node.Adj {
			if adj.Delay < r.dMin {
				r.dMin = adj.Delay
			}
			if adj.Delay > r.dMax {
				r.dMax = adj.Delay
			}
		}
	}
	return r
}

// edgeCost is the price of having an edge of the given delay in the cut:
// 1 for the slowest edge in the topology, 1+cutDelayPenalty for the
// fastest. Low-delay cut edges narrow the lookahead window, so they cost
// more.
func (r *refiner) edgeCost(delay float64) float64 {
	if r.dMax <= r.dMin {
		return 1
	}
	return 1 + cutDelayPenalty*(r.dMax-delay)/(r.dMax-r.dMin)
}

// cutDelta is the change in delay-weighted cut size if node v moves from
// its shard to shard d: edges into the old shard join the cut, edges into
// d leave it, edges into third shards are cut either way.
func (r *refiner) cutDelta(v topology.NodeID, d int) float64 {
	from := r.assign[v]
	var delta float64
	for _, adj := range r.topo.Node(v).Adj {
		switch r.assign[adj.To] {
		case from:
			delta += r.edgeCost(adj.Delay)
		case d:
			delta -= r.edgeCost(adj.Delay)
		}
	}
	return delta
}

func (r *refiner) move(v topology.NodeID, d int) {
	from := r.assign[v]
	r.assign[v] = d
	r.shardW[from] -= r.w[v]
	r.shardW[d] += r.w[v]
	r.shardN[from]--
	r.shardN[d]++
}

// tiebreak is a seeded deterministic hash used to order otherwise-equal
// candidate moves (splitmix64 finalizer over seed XOR node ID).
func tiebreak(seed int64, v topology.NodeID) uint64 {
	x := uint64(seed) ^ (uint64(v) + 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// balance repeatedly moves one boundary node out of the heaviest shard
// into an adjacent shard, as long as the move strictly shrinks the pair's
// max weight (so the sorted shard-weight vector strictly decreases and the
// loop terminates). Candidates are scanned in node-ID order; ties prefer
// the smaller cut increase, then the seeded hash.
func (r *refiner) balance() {
	maxMoves := balanceMovesPerShard * r.n
	for m := 0; m < maxMoves; m++ {
		h := 0
		for s := 1; s < r.n; s++ {
			if r.shardW[s] > r.shardW[h] {
				h = s
			}
		}
		if r.shardN[h] <= 1 {
			return // nothing movable out of a single-node heaviest shard
		}
		var (
			bestV    topology.NodeID
			bestD    int
			bestGain float64
			bestCut  float64
			found    bool
		)
		for _, node := range r.topo.Nodes {
			v := node.ID
			if r.assign[v] != h {
				continue
			}
			for _, d := range r.neighborShards(v) {
				newMax := math.Max(r.shardW[h]-r.w[v], r.shardW[d]+r.w[v])
				gain := r.shardW[h] - newMax
				if gain <= 0 {
					continue
				}
				cut := r.cutDelta(v, d)
				better := gain > bestGain ||
					(gain == bestGain && cut < bestCut) ||
					(gain == bestGain && cut == bestCut && found &&
						tiebreak(r.seed, v) < tiebreak(r.seed, bestV))
				if !found || better {
					bestV, bestD, bestGain, bestCut, found = v, d, gain, cut, true
				}
			}
		}
		if !found {
			return
		}
		r.move(bestV, bestD)
	}
}

// reduceCut sweeps the nodes in ID order a bounded number of times,
// greedily applying any move that shrinks the delay-weighted cut, keeps
// the destination shard within balanceSlack of the ideal mean, and never
// empties a shard.
func (r *refiner) reduceCut() {
	maxW := balanceSlack * r.total / float64(r.n)
	for pass := 0; pass < cutPasses; pass++ {
		improved := false
		for _, node := range r.topo.Nodes {
			v := node.ID
			from := r.assign[v]
			if r.shardN[from] <= 1 {
				continue
			}
			bestD, bestCut := -1, 0.0
			for _, d := range r.neighborShards(v) {
				if r.shardW[d]+r.w[v] > maxW {
					continue
				}
				if cut := r.cutDelta(v, d); cut < bestCut {
					bestD, bestCut = d, cut
				}
			}
			if bestD >= 0 {
				r.move(v, bestD)
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}

// neighborShards lists the distinct shards (other than v's own) that v has
// a session into, in ascending shard order. Moves are only ever to
// adjacent shards: moving elsewhere could not reduce the cut and would
// strand v without local sessions.
func (r *refiner) neighborShards(v topology.NodeID) []int {
	var out []int
	from := r.assign[v]
	for _, adj := range r.topo.Node(v).Adj {
		d := r.assign[adj.To]
		if d == from {
			continue
		}
		dup := false
		for _, e := range out {
			if e == d {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, d)
		}
	}
	// Insertion sort: the list is tiny (bounded by v's degree).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
