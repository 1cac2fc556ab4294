package topology

import (
	"reflect"
	"sync"
	"testing"

	"bestofboth/internal/memo"
)

func smallGen(seed int64) GenConfig {
	return GenConfig{
		Seed: seed, NumTransit: 12, NumRegional: 6, NumEyeball: 15,
		NumStub: 30, NumUniversity: 6,
	}
}

func TestCachedMissesOnChangedConfig(t *testing.T) {
	a, err := Cached(smallGen(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallGen(2)
	cfg.NumStub += 5
	b, err := Cached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == b.Len() {
		t.Fatalf("changed GenConfig produced identically sized topology (%d nodes): cache key too coarse?", a.Len())
	}
	cfg2 := smallGen(2)
	cfg2.SiteCodes = []string{"ams", "atl"}
	c, err := Cached(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.NodesOfClass(ClassCDN)) != 2 {
		t.Fatalf("SiteCodes ignored: got %d CDN nodes", len(c.NodesOfClass(ClassCDN)))
	}
}

func TestCachedMatchesGenerate(t *testing.T) {
	cfg := smallGen(3)
	gen, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Cached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Len() != cached.Len() {
		t.Fatalf("Cached (%d nodes) != Generate (%d nodes)", cached.Len(), gen.Len())
	}
	for i := range gen.Nodes {
		ga, ca := gen.Nodes[i], cached.Nodes[i]
		if ga.Name != ca.Name || ga.ASN != ca.ASN || ga.Class != ca.Class ||
			ga.Prefix != ca.Prefix || len(ga.Adj) != len(ca.Adj) {
			t.Fatalf("node %d differs between Generate and Cached", i)
		}
		for j := range ga.Adj {
			if ga.Adj[j] != ca.Adj[j] {
				t.Fatalf("adjacency %d/%d differs between Generate and Cached", i, j)
			}
		}
	}
}

func TestCachedConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	tops := make([]*Topology, 8)
	for i := range tops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			topo, err := Cached(smallGen(4))
			if err != nil {
				t.Error(err)
				return
			}
			tops[i] = topo
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(tops); i++ {
		if tops[i] == nil || tops[i] != tops[0] {
			t.Fatal("concurrent Cached calls must all return the one memoized instance")
		}
	}
}

func mustCached(t *testing.T, cfg GenConfig) *Topology {
	t.Helper()
	topo, err := Cached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestCachedMemoizesPastCap(t *testing.T) {
	for i := int64(0); i < memo.Cap; i++ {
		mustCached(t, smallGen(1000+i))
	}
	if mustCached(t, smallGen(7)) != mustCached(t, smallGen(7)) {
		t.Fatal("a configuration first seen with the cache full is regenerated on every call")
	}
}

func TestCachedEvictsLeastRecentlyUsed(t *testing.T) {
	hot, cold := mustCached(t, smallGen(8)), mustCached(t, smallGen(9))
	newer := make([]*Topology, memo.Cap)
	for i := range newer {
		newer[i] = mustCached(t, smallGen(2000+int64(i)))
		if mustCached(t, smallGen(8)) != hot {
			t.Fatalf("the entry touched between inserts was evicted after %d newer keys", i+1)
		}
	}
	// Retained: hot and newer[1:]. The least recently used were cold, then
	// newer[0].
	if mustCached(t, smallGen(2001)) != newer[1] {
		t.Fatal("a retained key was evicted")
	}
	if mustCached(t, smallGen(9)) == cold || mustCached(t, smallGen(2000)) == newer[0] {
		t.Fatal("the least recently used entries survived a full cache of newer keys")
	}
}

func TestGenKeyCoversEveryField(t *testing.T) {
	zero := genKey(GenConfig{})
	typ := reflect.TypeOf(GenConfig{})
	for i := 0; i < typ.NumField(); i++ {
		var cfg GenConfig
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("GenConfig.%s: no non-zero value for kind %s", typ.Field(i).Name, f.Kind())
		}
		if genKey(cfg) == zero {
			t.Errorf("setting GenConfig.%s leaves the cache key unchanged", typ.Field(i).Name)
		}
	}
}
