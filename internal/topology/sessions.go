package topology

import "slices"

// sessionTables is ReverseSessions' result.
type sessionTables struct {
	off, rev []int32
}

// ReverseSessions numbers every session of the graph and pairs it with its
// reverse half. Node v's sessions are off[v] to off[v+1] in one graph-wide
// numbering, session i of v being off[v]+i; rev[off[v]+i] is the session by
// which v.Adj[i].To refers back to v, its first such session, or -1 when it
// has none. The tables are computed once, in O(E) — by Builder.Build, or
// at the first call for a Topology assembled by hand — and every caller
// shares them read-only, so a topology must not be edited once it has
// them. Safe for concurrent use.
func (t *Topology) ReverseSessions() (off, rev []int32) {
	t.sessOnce.Do(func() { t.sess.off, t.sess.rev = reverseSessions(t) })
	return t.sess.off, t.sess.rev
}

// reverseSessions computes ReverseSessions' tables. The halves pointing at
// each node are filed into that node's range, then matched to its own
// sessions through a per-node mark.
func reverseSessions(topo *Topology) (off, rev []int32) {
	n := topo.Len()
	off = make([]int32, n+1)
	// in[v] starts as where v's filed halves begin; filing advances it to
	// where they end, which is where v+1's begin.
	in := make([]int32, n+1)
	for v, node := range topo.Nodes {
		off[v+1] = off[v] + int32(len(node.Adj))
		for _, adj := range node.Adj {
			in[adj.To+1]++
		}
	}
	for v := range n {
		in[v+1] += in[v]
	}
	rev = make([]int32, off[n])
	// Where every node is pointed at by as many halves as it has sessions
	// (every link has its reverse half, as Validate requires), a node's
	// filed halves occupy its own range of rev, so the filing borrows rev:
	// a node's halves are all read before its own sessions are written.
	back := rev
	if !slices.Equal(in, off) {
		back = make([]int32, in[n])
	}
	from := make([]NodeID, in[n])
	for w, node := range topo.Nodes {
		for j, adj := range node.Adj {
			k := in[adj.To]
			from[k], back[k] = NodeID(w), int32(j)
			in[adj.To]++
		}
	}
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	start := int32(0)
	for v, node := range topo.Nodes {
		end := in[v]
		// w's halves are filed in session order, so the first one toward v
		// is w's first session to v.
		for k := start; k < end; k++ {
			if mark[from[k]] < 0 {
				mark[from[k]] = back[k]
			}
		}
		for i, adj := range node.Adj {
			rev[off[v]+int32(i)] = mark[adj.To]
		}
		for k := start; k < end; k++ {
			mark[from[k]] = -1
		}
		start = end
	}
	return off, rev
}
