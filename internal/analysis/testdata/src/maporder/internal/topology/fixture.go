// Package topology exercises cdnlint/maporder inside a deterministic
// package path.
package topology

import (
	"internal/netsim"
	"internal/obs"
	"slices"
	"sort"
)

func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside map iteration with no later sort`
	}
	return keys
}

func appendThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // collect-then-sort is the sanctioned pattern
	}
	sort.Strings(keys)
	return keys
}

func appendThenSortFunc(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int { return len(a) - len(b) })
	return keys
}

type prefixCache struct{ sorted []string }

func fieldAppendNoSort(c *prefixCache, m map[string]int) {
	for k := range m {
		c.sorted = append(c.sorted, k) // want `append to c\.sorted inside map iteration with no later sort`
	}
}

func fieldAppendThenSort(c *prefixCache, m map[string]int) {
	c.sorted = c.sorted[:0]
	for k := range m {
		c.sorted = append(c.sorted, k) // the cached-keys idiom: collect into the field, then sort it
	}
	sort.Strings(c.sorted)
}

func fieldAppendSortsOther(c, d *prefixCache, m map[string]int) {
	for k := range m {
		c.sorted = append(c.sorted, k) // want `append to c\.sorted inside map iteration with no later sort`
	}
	sort.Strings(d.sorted) // sorting another cache's slice launders nothing
}

func loopCarried(m map[string]int) map[string]int {
	out := map[string]int{}
	idx := 0
	for k := range m {
		out[k] = idx
		idx++ // want `loop-carried variable idx`
	}
	return out
}

func commutativeCounter(m map[string]int) int {
	n := 0
	for range m {
		n++ // counter never read in the body: commutative
	}
	return n
}

func commutativeSum(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v // integer accumulation is order-independent
	}
	return sum
}

func spelledOutSum(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum = sum + v // same as +=, still commutative
	}
	return sum
}

func floatSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `compound accumulation into float64 total`
	}
	return total
}

func stringDigest(m map[string]string) string {
	s := ""
	for k := range m {
		s += k // want `compound accumulation into string s`
	}
	return s
}

func scheduleInRange(sim *netsim.Sim, m map[string]float64) {
	for _, at := range m {
		sim.At(at, nil) // want `At schedules an event inside map iteration`
	}
}

type builder struct{ n int }

func (b *builder) AddItem(k string) {}

func sinkAdd(b *builder, m map[string]int) {
	for k := range m {
		b.AddItem(k) // want `AddItem called inside map iteration`
	}
}

type point struct{ x int }

func (p point) Add(q point) point { return point{p.x + q.x} }

func pureValueAdd(m map[string]point) {
	var p point
	for _, v := range m {
		_ = p.Add(v) // value receiver: pure, not an accumulator
	}
}

func obsInRange(c *obs.Counter, m map[string]int) {
	for range m {
		c.Add(1) // obs counters are commutative by contract
	}
}

func sliceRange(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x) // slice iteration is ordered; nothing to flag
	}
	return out
}
