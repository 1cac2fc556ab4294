package traffic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"bestofboth/internal/topology"
)

// TestModelGolden pins the default demand model bit for bit: seed 42 over
// testTargets(300) and testSites must draw exactly these rates, buckets and
// capacities, and summarize to exactly these totals, Gini and top-decile
// share. Every demand figure (fig2 -demand, load, the load-management
// scenarios) is a function of this draw, so a refactor of the model must
// leave the digest and the summary as they are.
func TestModelGolden(t *testing.T) {
	m, err := NewModel(Config{Enabled: true}, 42, testTargets(300), testSites)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	m.Each(func(id topology.NodeID, micro int64, bucket int) {
		put(int64(id))
		put(micro)
		put(int64(bucket))
	})
	for i := 0; i < m.NumSites(); i++ {
		put(m.Capacity(i))
	}
	const wantDigest = "c582a4df98ed659db5391a83cf4d1cc8a03bd2ed683a74d6557718c2f661d31b"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("model digest %s, want %s", got, wantDigest)
	}
	const wantSummary = "{Targets:300 TotalRPS:120000 CapacityRPS:150000 Gini:0.5315180592828332 TopDecileShare:0.4581213433083333 Distribution:pareto}"
	if got := fmt.Sprintf("%+v", m.Summary()); got != wantSummary {
		t.Errorf("summary %s, want %s", got, wantSummary)
	}
}
