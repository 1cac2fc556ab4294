package bgp

import (
	"math"

	"bestofboth/internal/netsim"
)

// Route-flap damping (RFC 2439), enabled by Config.Damping: a per-(prefix,
// session) penalty accrues on each flap and decays exponentially; routes
// whose penalty exceeds the suppress threshold are withheld from the
// decision process until the penalty decays below the reuse threshold.
// The parameters are RFC 2439's example values.
//
// Damping is how deployed networks protect themselves from churn, and it
// interacts with the paper's techniques: reactive announcements arriving
// during the withdrawal churn of a failure can be penalized at routers
// that already saw the prefix flap, lengthening failover tails (one
// candidate explanation for the combined technique's poor tail, §4).
const (
	dampPenalty    = 1000 // added per flap
	dampSuppressAt = 2000 // penalty above which a route is suppressed
	dampReuseAt    = 750  // penalty below which a suppressed route is restored
	dampHalfLife   = 900  // seconds of exponential decay per halving
)

// dampState tracks the flap penalty of one (prefix, session).
type dampState struct {
	penalty    float64
	lastUpdate netsim.Seconds
	suppressed bool
}

// decayTo brings the penalty forward to time now.
func (d *dampState) decayTo(now netsim.Seconds) {
	if d.penalty > 0 && now > d.lastUpdate {
		d.penalty *= math.Exp2(-(now - d.lastUpdate) / dampHalfLife)
		if d.penalty < 1 {
			d.penalty = 0
		}
	}
	d.lastUpdate = now
}

// flap records one flap at time now and returns whether the route is now
// suppressed.
func (s *Speaker) flap(p *prefixState, sess int) bool {
	sd := s.side(p)
	if sd.damp == nil {
		sd.damp = make([]dampState, len(s.node.Adj))
	}
	d := &sd.damp[sess]
	now := s.sh.sim.Now()
	d.decayTo(now)
	d.penalty += dampPenalty
	s.net.m.dampFlaps.Inc()
	if !d.suppressed && d.penalty >= dampSuppressAt {
		d.suppressed = true
		s.net.m.dampSupp.Inc()
		s.scheduleReuse(p, sess)
	}
	return d.suppressed
}

// dampSuppressed reports whether the session's route for this prefix is
// currently withheld, unsuppressing lazily when the penalty has decayed.
func (s *Speaker) dampSuppressed(p *prefixState, sess int) bool {
	if p.side == nil || p.side.damp == nil {
		return false
	}
	if !p.side.damp[sess].suppressed {
		return false
	}
	d := &s.side(p).damp[sess]
	d.decayTo(s.sh.sim.Now())
	if d.penalty <= dampReuseAt {
		d.suppressed = false
	}
	return d.suppressed
}

// scheduleReuse arranges a recompute when the penalty will have decayed to
// the reuse threshold.
func (s *Speaker) scheduleReuse(p *prefixState, sess int) {
	d := &p.side.damp[sess]
	if d.penalty <= dampReuseAt {
		return
	}
	wait := dampHalfLife * math.Log2(d.penalty/dampReuseAt)
	s.sh.sim.After(wait+0.001, func() {
		if !s.dampSuppressed(p, sess) {
			// The route re-enters the decision process.
			s.recompute(p)
			s.exportAll(p)
		} else if p.side.damp[sess].suppressed {
			s.scheduleReuse(p, sess)
		}
	})
}
