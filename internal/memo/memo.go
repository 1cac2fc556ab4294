// Package memo is the bounded memo behind the process-wide caches of
// generated topologies and of converged-world snapshots.
package memo

import "sync"

// Cap is the number of keys a Cache retains.
const Cap = 32

// Cache memoizes one build per string key. The zero value is an empty cache
// ready to use, and a Cache is safe for concurrent use.
type Cache[V any] struct {
	mu   sync.Mutex
	tick uint64 // bumped by every Get, so no two entries share a use tick
	m    map[string]*entry[V]
}

type entry[V any] struct {
	once sync.Once
	used uint64 // the tick of the entry's last Get
	v    V
	err  error
}

// Get returns the value built for key, calling build unless the key is
// retained (hit). A retained key is built at most once: concurrent callers
// share one build, and an error is memoized like a value. Past Cap keys, Get
// evicts the least recently used one (evicted); its holders keep its value.
func (c *Cache[V]) Get(key string, build func() (V, error)) (v V, hit, evicted bool, err error) {
	c.mu.Lock()
	c.tick++
	e, hit := c.m[key]
	if !hit {
		if evicted = len(c.m) >= Cap; evicted {
			// Use ticks are unique, so the least does not depend on map order.
			var oldest string
			var least *entry[V]
			for k, o := range c.m {
				if least == nil || o.used < least.used {
					oldest, least = k, o
				}
			}
			delete(c.m, oldest)
		} else if c.m == nil {
			c.m = map[string]*entry[V]{}
		}
		e = &entry[V]{}
		c.m[key] = e
	}
	e.used = c.tick
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, hit, evicted, e.err
}
