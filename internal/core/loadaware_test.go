package core

import (
	"reflect"
	"testing"

	"bestofboth/internal/dns"
	"bestofboth/internal/topology"
)

func lbClients(w *world, n int) []topology.NodeID {
	var out []topology.NodeID
	for _, node := range w.topo.Nodes {
		if node.Prefix.IsValid() {
			out = append(out, node.ID)
		}
		if len(out) == n {
			break
		}
	}
	return out
}

func TestLoadBalancerRespectsCapacity(t *testing.T) {
	w := newWorld(t, 70)
	if err := w.cdn.Deploy(Unicast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	cap := map[string]int{}
	for _, s := range w.cdn.Sites() {
		cap[s.Code] = 10
	}
	lb, err := w.cdn.NewLoadBalancer(cap)
	if err != nil {
		t.Fatal(err)
	}
	clients := lbClients(w, 60)
	lb.Assign(clients)

	total := 0
	for _, s := range w.cdn.Sites() {
		if lb.Load(s.Code) > 10 {
			t.Fatalf("site %s over capacity: %d", s.Code, lb.Load(s.Code))
		}
		total += lb.Load(s.Code)
	}
	if total+lb.Shed != len(clients) {
		t.Fatalf("assignment accounting broken: %d placed + %d shed != %d", total, lb.Shed, len(clients))
	}
	if total < 55 {
		t.Fatalf("only %d/60 clients placed with total capacity 80", total)
	}
}

func TestLoadBalancerSpillsToNextNearest(t *testing.T) {
	w := newWorld(t, 71)
	if err := w.cdn.Deploy(Unicast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	// One-slot capacity on every site forces spillover ordering.
	cap := map[string]int{}
	for _, s := range w.cdn.Sites() {
		cap[s.Code] = 1
	}
	lb, err := w.cdn.NewLoadBalancer(cap)
	if err != nil {
		t.Fatal(err)
	}
	clients := lbClients(w, 8)
	lb.Assign(clients)
	// All 8 one-slot sites fill with the 8 clients (unicast: everyone is
	// steerable everywhere).
	for _, s := range w.cdn.Sites() {
		if lb.Load(s.Code) != 1 {
			t.Fatalf("site %s load %d, want 1", s.Code, lb.Load(s.Code))
		}
	}
	// Assigning the same clients again is a no-op.
	lb.Assign(clients)
	for _, s := range w.cdn.Sites() {
		if lb.Load(s.Code) != 1 {
			t.Fatal("reassignment changed loads")
		}
	}
}

func TestLoadBalancerRebalanceAfterFailure(t *testing.T) {
	w := newWorld(t, 72)
	if err := w.cdn.Deploy(Unicast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	lb, err := w.cdn.NewLoadBalancer(nil) // unlimited
	if err != nil {
		t.Fatal(err)
	}
	clients := lbClients(w, 40)
	lb.Assign(clients)

	// Find the most loaded site and fail it.
	var victim *Site
	for _, s := range w.cdn.Sites() {
		if victim == nil || lb.Load(s.Code) > lb.Load(victim.Code) {
			victim = s
		}
	}
	if lb.Load(victim.Code) == 0 {
		t.Skip("no site attracted load")
	}
	if _, err := w.cdn.FailSite(victim.Code); err != nil {
		t.Fatal(err)
	}
	w.converge()
	lb.Rebalance()

	if lb.Load(victim.Code) != 0 {
		t.Fatalf("failed site still has %d clients", lb.Load(victim.Code))
	}
	for _, id := range clients {
		s := lb.Assignment(id)
		if s == nil {
			continue // shed
		}
		if s.Code == victim.Code {
			t.Fatal("client still assigned to failed site")
		}
	}
}

// TestLoadBalancerRebalanceEvictsOverCapacity also pins which clients are
// evicted: two identically built worlds must shed the same clients, so the
// eviction order cannot follow map iteration.
func TestLoadBalancerRebalanceEvictsOverCapacity(t *testing.T) {
	run := func() (map[topology.NodeID]string, int) {
		w := newWorld(t, 73)
		w.cdn.Deploy(Unicast{})
		w.converge()
		lb, err := w.cdn.NewLoadBalancer(nil)
		if err != nil {
			t.Fatal(err)
		}
		clients := lbClients(w, 60)
		lb.Assign(clients)
		// Impose a one-slot cap everywhere afterwards and rebalance: every
		// site keeps one client, the rest are evicted and shed.
		var busiest *Site
		lb.Capacity = map[string]int{}
		for _, s := range w.cdn.Sites() {
			if busiest == nil || lb.Load(s.Code) > lb.Load(busiest.Code) {
				busiest = s
			}
			lb.Capacity[s.Code] = 1
		}
		if lb.Load(busiest.Code) < 2 {
			t.Skip("load too flat to test eviction")
		}
		lb.Rebalance()
		if lb.Load(busiest.Code) != 1 {
			t.Fatalf("site %s load %d after cap 1", busiest.Code, lb.Load(busiest.Code))
		}
		kept := map[topology.NodeID]string{}
		for _, id := range clients {
			if s := lb.Assignment(id); s != nil {
				kept[id] = s.Code
			}
		}
		return kept, lb.Shed
	}
	keptA, shedA := run()
	keptB, shedB := run()
	if shedA == 0 {
		t.Fatal("one-slot caps shed nobody: the eviction order is not exercised")
	}
	if shedA != shedB || !reflect.DeepEqual(keptA, keptB) {
		t.Fatalf("identical worlds rebalanced differently:\n%v shed %d\n%v shed %d", keptA, shedA, keptB, shedB)
	}
}

func TestLoadBalancerMapperFollowsAssignments(t *testing.T) {
	w := newWorld(t, 74)
	w.cdn.Deploy(Unicast{})
	w.converge()
	lb, err := w.cdn.NewLoadBalancer(nil)
	if err != nil {
		t.Fatal(err)
	}
	clients := lbClients(w, 10)
	lb.Assign(clients)
	lb.InstallMapper()

	resolver := dns.NewResolver(w.cdn.Authoritative())
	for _, id := range clients {
		s := lb.Assignment(id)
		if s == nil {
			continue
		}
		caddr := w.topo.Node(id).Prefix.Addr().Next()
		addrs, _, err := resolver.ResolveFor(0, "www.cdn.example", caddr)
		if err != nil {
			t.Fatal(err)
		}
		if len(addrs) != 1 || addrs[0] != s.Addr {
			t.Fatalf("client %d: DNS says %v, balancer says %v", id, addrs, s.Addr)
		}
	}
}

func TestLoadBalancerErrors(t *testing.T) {
	w := newWorld(t, 75)
	if _, err := w.cdn.NewLoadBalancer(nil); err == nil {
		t.Fatal("balancer before deploy accepted")
	}
	w.cdn.Deploy(Unicast{})
	if _, err := w.cdn.NewLoadBalancer(map[string]int{"zzz": 1}); err == nil {
		t.Fatal("capacity for unknown site accepted")
	}
}

func TestLoadBalancerShedsWhenFull(t *testing.T) {
	w := newWorld(t, 76)
	w.cdn.Deploy(Unicast{})
	w.converge()
	cap := map[string]int{}
	for _, s := range w.cdn.Sites() {
		cap[s.Code] = 0
	}
	lb, _ := w.cdn.NewLoadBalancer(cap)
	lb.Assign(lbClients(w, 5))
	if lb.Shed != 5 {
		t.Fatalf("shed = %d, want 5", lb.Shed)
	}
}
