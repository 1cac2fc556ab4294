package experiment

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/topology"
)

// refSelectTargets is SelectTargets as it stood before its worlds were
// solved: the same body over two deployed worlds converged event by event
// (convergedWorld's simulated path). It is the reference the solved
// selection is pinned against.
func refSelectTargets(cfg WorldConfig, maxPerSite int) (*Selection, error) {
	// Pass 1: unicast world for proximity.
	wu, err := convergedWorld(cfg, core.Unicast{}, ConvergeTime, false)
	if err != nil {
		return nil, err
	}

	type siteInfo struct {
		code string
		rtts map[topology.NodeID]float64
	}
	var infos []siteInfo
	targets := wu.Targets()
	for _, s := range wu.CDN.Sites() {
		pr := dataplane.NewProber(wu.Plane, s.Node, s.Addr)
		rtts := make(map[topology.NodeID]float64, len(targets))
		for _, tgt := range targets {
			if rtt, ok := pr.RTT(tgt.ID); ok {
				rtts[tgt.ID] = rtt
			}
		}
		infos = append(infos, siteInfo{code: s.Code, rtts: rtts})
	}

	// Pass 2: anycast world for catchments.
	wa, err := convergedWorld(cfg, core.Anycast{}, ConvergeTime, false)
	if err != nil {
		return nil, err
	}

	catch := make(map[topology.NodeID]string, len(targets))
	for _, tgt := range targets {
		if s := wa.CDN.CatchmentOf(tgt.ID, core.AnycastServiceAddr); s != nil {
			catch[tgt.ID] = s.Code
		} else {
			catch[tgt.ID] = ""
		}
	}

	sel := &Selection{AnycastCatchment: catch}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for _, info := range infos {
		st := SiteTargets{Code: info.code}
		var prox []topology.NodeID
		for id, rtt := range info.rtts {
			if rtt <= ProximityRTT {
				prox = append(prox, id)
			}
		}
		sort.Slice(prox, func(i, j int) bool { return prox[i] < prox[j] })
		st.Proximate = capTargets(rng, prox, maxPerSite)
		for _, id := range st.Proximate {
			if catch[id] == info.code {
				st.AnycastHere = append(st.AnycastHere, id)
			} else {
				st.NotAnycast = append(st.NotAnycast, id)
			}
		}
		sel.Sites = append(sel.Sites, st)
	}
	return sel, nil
}

// TestSelectTargetsMatchesReference requires the solved selection to be
// the converged one, field for field: at default and paper scale, with
// shared providers 0 and 2, on four seeds each and on each seed's
// RepeatabilityCheck partner (seed+1000003); and, at default scale, under
// route-flap damping, which the solve leaves out and the reference
// converges with. The cap of 200 is cdnsim fig2's, so the sampling runs
// too.
func TestSelectTargetsMatchesReference(t *testing.T) {
	scales := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"paper", []Option{WithPaperScale()}},
		{"default-damping", []Option{WithDamping()}},
	}
	for _, sc := range scales {
		for _, shared := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/shared=%d", sc.name, shared), func(t *testing.T) {
				if sc.name == "paper" && testing.Short() {
					t.Skip("paper-scale converges skipped in -short mode")
				}
				t.Parallel()
				for _, seed := range []int64{1, 2, 3, 4} {
					for _, s := range []int64{seed, seed + 1000003} {
						cfg := DefaultWorldConfig(append([]Option{WithSeed(s)}, sc.opts...)...)
						cfg.Topology.CDNSharedProviders = shared
						got, err := SelectTargets(cfg, 200)
						if err != nil {
							t.Fatal(err)
						}
						want, err := refSelectTargets(cfg, 200)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("seed %d: solved selection differs from the converged one", s)
						}
					}
				}
			})
		}
	}
}
