package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetSharesConcurrentBuild(t *testing.T) {
	var c Cache[*int]
	var builds atomic.Int32
	release := make(chan struct{})
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, _, err := c.Get("k", func() (*int, error) {
				builds.Add(1)
				<-release
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatal("concurrent callers of one key must share the one built value")
		}
	}
}

func TestEvictedValueStaysWithHolder(t *testing.T) {
	var c Cache[*[]int]
	build := func() (*[]int, error) { return &[]int{1, 2, 3}, nil }
	held, _, _, _ := c.Get("held", build)
	evictions := 0
	for i := 0; i < Cap; i++ {
		if _, _, evicted, _ := c.Get(fmt.Sprint(i), func() (*[]int, error) { return &[]int{i}, nil }); evicted {
			evictions++
		}
	}
	if evictions != 1 {
		t.Fatalf("%d evictions from Cap newer keys after one, want 1", evictions)
	}
	if again, _, _, _ := c.Get("held", build); again == held {
		t.Fatal("the least recently used key was not evicted")
	}
	if fmt.Sprint(*held) != "[1 2 3]" {
		t.Fatalf("the holder's evicted value changed: %v", *held)
	}
}

func TestGetMemoizesErrors(t *testing.T) {
	var c Cache[*int]
	boom := errors.New("boom")
	builds := 0
	for i := 0; i < 3; i++ {
		v, hit, _, err := c.Get("bad", func() (*int, error) { builds++; return nil, boom })
		if !errors.Is(err, boom) || v != nil {
			t.Fatalf("Get = %v, %v; want nil, %v", v, err, boom)
		}
		if hit != (i > 0) {
			t.Fatalf("call %d: hit = %v", i, hit)
		}
	}
	if builds != 1 {
		t.Fatalf("a failed build ran %d times, want 1", builds)
	}
}
