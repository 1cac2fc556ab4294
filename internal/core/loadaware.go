package core

import (
	"fmt"
	"sort"

	"bestofboth/internal/topology"
)

// LoadBalancer assigns clients to sites under per-site capacity limits —
// the "load distribution" control goal of §3-4 (cf. FastRoute's load-aware
// anycast layers): traffic control exists so the CDN can move clients off
// hot sites, which pure anycast cannot do. Assignments prefer the
// lowest-latency steerable site with spare capacity and spill over to the
// next-nearest otherwise.
type LoadBalancer struct {
	cdn *CDN
	// Capacity is the maximum number of assigned clients per site code.
	Capacity map[string]int

	assigned   map[string]int
	assignment map[topology.NodeID]*Site
	// Shed counts clients no healthy site had capacity for.
	Shed int
}

// NewLoadBalancer builds a balancer over the CDN's sites. Sites missing
// from capacity are treated as unlimited.
func (c *CDN) NewLoadBalancer(capacity map[string]int) (*LoadBalancer, error) {
	if c.technique == nil {
		return nil, fmt.Errorf("core: deploy a technique before load balancing")
	}
	for code := range capacity {
		if c.byCode[code] == nil {
			return nil, fmt.Errorf("core: capacity for unknown site %q", code)
		}
	}
	return &LoadBalancer{
		cdn:        c,
		Capacity:   capacity,
		assigned:   map[string]int{},
		assignment: map[topology.NodeID]*Site{},
	}, nil
}

// Assignment returns the site currently assigned to a client, or nil.
func (lb *LoadBalancer) Assignment(client topology.NodeID) *Site {
	return lb.assignment[client]
}

// Load returns the number of clients assigned to a site.
func (lb *LoadBalancer) Load(code string) int { return lb.assigned[code] }

// hasRoom reports whether a site can take one more client.
func (lb *LoadBalancer) hasRoom(code string) bool {
	cap, limited := lb.Capacity[code]
	return !limited || lb.assigned[code] < cap
}

// Assign maps each client to the lowest-latency healthy steerable site
// with spare capacity, spilling to farther sites when the nearest is full.
// Clients that cannot be placed are shed (counted, unassigned).
func (lb *LoadBalancer) Assign(clients []topology.NodeID) {
	for _, client := range clients {
		if cur := lb.assignment[client]; cur != nil {
			continue // already placed
		}
		site := lb.pick(client)
		if site == nil {
			lb.Shed++
			continue
		}
		lb.assignment[client] = site
		lb.assigned[site.Code]++
	}
}

// pick returns the best available site for one client.
func (lb *LoadBalancer) pick(client topology.NodeID) *Site {
	c := lb.cdn
	type cand struct {
		s *Site
		d float64
	}
	var cands []cand
	for _, s := range c.HealthySites() {
		if !lb.hasRoom(s.Code) {
			continue
		}
		cands = append(cands, cand{s, c.plane.StaticDelay(s.Node, client)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	// Prefer steerable sites in latency order, then fall back to any
	// healthy site with room.
	for _, cd := range cands {
		if c.CanSteer(client, cd.s) {
			return cd.s
		}
	}
	if len(cands) > 0 {
		return cands[0].s
	}
	return nil
}

// Rebalance reassigns the clients of failed or over-capacity sites. Call
// it after failures or capacity changes; clients keep their site when it
// remains healthy and within capacity (assignment stability).
func (lb *LoadBalancer) Rebalance() {
	c := lb.cdn
	// First pass: evict clients from failed sites and from sites over
	// capacity (in deterministic client order, newest evicted first is not
	// tracked — evict by client id order).
	var evicted []topology.NodeID
	var ids []topology.NodeID
	for id := range lb.assignment {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	over := map[string]int{}
	for code, n := range lb.assigned {
		if cap, limited := lb.Capacity[code]; limited && n > cap {
			over[code] = n - cap
		}
	}
	for _, id := range ids {
		s := lb.assignment[id]
		if c.Failed(s.Code) {
			evicted = append(evicted, id)
			delete(lb.assignment, id)
			lb.assigned[s.Code]--
			continue
		}
		if over[s.Code] > 0 {
			over[s.Code]--
			evicted = append(evicted, id)
			delete(lb.assignment, id)
			lb.assigned[s.Code]--
		}
	}
	lb.Assign(evicted)
}

// InstallMapper points the CDN's end-user mapping at the balancer's
// assignments: ECS queries for the service name return each client's
// assigned site (falling back to BestSiteFor when unassigned).
func (lb *LoadBalancer) InstallMapper() {
	c := lb.cdn
	c.installMapper(func(node topology.NodeID) *Site {
		if site := lb.assignment[node]; site != nil && !c.Failed(site.Code) {
			return site
		}
		return c.BestSiteFor(node)
	})
}
