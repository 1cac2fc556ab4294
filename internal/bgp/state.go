package bgp

import (
	"io"
	"slices"
	"strconv"
	"strings"

	"bestofboth/internal/topology"
)

// digestChunk is how much canonical text WriteRouteState buffers between
// writes: large enough that a hasher sees few calls, small enough that the
// encoder's whole footprint is one buffer that stays in cache.
const digestChunk = 32 << 10

// WriteRouteState streams the semantic routing state of the whole network
// to w as canonical text: per speaker, per prefix, the origination policy,
// the loc-RIB best route, and the non-empty adj-RIB-in/out slots. Pacing
// deadlines, damping penalties, delivery clocks, and message counters are
// deliberately excluded — two networks with equal text make identical
// forwarding and export decisions even if they took different paced paths
// to get there. The control plane hashes the stream without materialising
// it; the text is rendered append-style into one reused chunk buffer.
func (n *Network) WriteRouteState(w io.Writer) error {
	buf := make([]byte, 0, digestChunk+digestChunk/4)
	for i := range n.speakers {
		sp := &n.speakers[i]
		for _, id := range n.order {
			st := sp.at(id)
			if st == nil {
				continue
			}
			mark := len(buf)
			buf = append(buf, sp.node.Name...)
			buf = append(buf, ' ')
			buf = n.prefixes[id].AppendTo(buf)
			buf = append(buf, '\n')
			body := len(buf)
			buf = appendPrefixState(buf, sp, st)
			if len(buf) == body {
				buf = buf[:mark] // empty husk left by a full withdraw cycle
				continue
			}
			if len(buf) >= digestChunk {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// RouteStateDigest returns WriteRouteState's text as a string. Regression
// tests use it to check that fail→recover cycles re-converge to exactly
// the never-failed state.
func (n *Network) RouteStateDigest() string {
	var b digestText
	n.WriteRouteState(&b) // a strings.Builder never fails a write
	return b.String()
}

// digestText is the strings.Builder behind RouteStateDigest. Growing ahead
// of each chunk makes the builder double (Grow's policy); a bare Write
// grows by append's 1.25x and ends up allocating five times the text.
type digestText struct{ strings.Builder }

func (d *digestText) Write(p []byte) (int, error) {
	d.Grow(len(p))
	return d.Builder.Write(p)
}

// appendPrefixState renders one prefix's lines; nothing for an empty husk.
// sp owns the sessions: the adj-RIB-in's LOCAL_PREF derives from them.
//
//cdnlint:allocfree runs once per (speaker, prefix) of every state digest
func appendPrefixState(buf []byte, sp *Speaker, st *prefixState) []byte {
	if st.origin != nil {
		buf = append(buf, "  origin "...)
		buf = appendOrigin(buf, st.origin.pol)
		buf = append(buf, '\n')
	}
	if st.best != nil {
		buf = append(buf, "  best sess="...)
		buf = strconv.AppendInt(buf, int64(st.bestSess), 10)
		buf = append(buf, ' ')
		buf = appendRoute(buf, st.best)
		buf = append(buf, '\n')
	}
	for sess := range st.adj {
		if r := st.adj[sess].in; r != nil {
			buf = append(buf, "  in["...)
			buf = strconv.AppendInt(buf, int64(sess), 10)
			buf = append(buf, "] lp="...)
			buf = strconv.AppendInt(buf, int64(sp.localPref(sess)), 10)
			buf = append(buf, ' ')
			buf = appendRoute(buf, r)
			buf = append(buf, '\n')
		}
	}
	for sess := range st.adj {
		if r := st.adj[sess].out; r != nil {
			buf = append(buf, "  out["...)
			buf = strconv.AppendInt(buf, int64(sess), 10)
			buf = append(buf, "] "...)
			buf = appendRoute(buf, r)
			buf = append(buf, '\n')
		}
	}
	return buf
}

// appendRoute renders the attributes a route carries on the wire.
// OriginNode is deliberately omitted: it is simulator bookkeeping outside
// the decision process, and under anycast wire-identical routes from
// different originating sites leave different OriginNode breadcrumbs
// depending on arrival order.
//
//cdnlint:allocfree runs once per RIB slot of every state digest
func appendRoute(buf []byte, r *Route) []byte {
	buf = append(buf, "path="...)
	buf = appendUints(buf, r.Path)
	buf = append(buf, " med="...)
	buf = strconv.AppendInt(buf, int64(r.MED), 10)
	buf = append(buf, " comm="...)
	return appendUints(buf, r.Communities)
}

// appendOrigin renders an origination policy, per-neighbor overrides in
// ascending neighbor id.
//
//cdnlint:allocfree
func appendOrigin(buf []byte, pol *OriginPolicy) []byte {
	buf = append(buf, "prepend="...)
	buf = strconv.AppendInt(buf, int64(pol.Prepend), 10)
	buf = append(buf, " med="...)
	buf = strconv.AppendInt(buf, int64(pol.MED), 10)
	buf = append(buf, " comm="...)
	buf = appendUints(buf, pol.Communities)
	if len(pol.PerNeighbor) == 0 {
		return buf
	}
	// Only scoped origination policies carry PerNeighbor entries (a handful
	// of site prefixes), so the id slice is the encoder's one rare make.
	ids := make([]topology.NodeID, 0, len(pol.PerNeighbor))
	for id := range pol.PerNeighbor {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		np := pol.PerNeighbor[id]
		buf = append(buf, " nbr["...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, "]={export="...)
		buf = strconv.AppendBool(buf, np.Export)
		buf = append(buf, " prepend="...)
		buf = strconv.AppendInt(buf, int64(np.Prepend), 10)
		buf = append(buf, '}')
	}
	return buf
}

// appendUints renders xs the way fmt's %v renders a slice of unsigned
// integers: "[1 2 3]", and "[]" for nil and empty alike.
//
//cdnlint:allocfree
func appendUints[T ~uint32](buf []byte, xs []T) []byte {
	buf = append(buf, '[')
	for i, x := range xs {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendUint(buf, uint64(x), 10)
	}
	return append(buf, ']')
}
