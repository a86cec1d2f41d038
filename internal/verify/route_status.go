package verify

import (
	"primopt/internal/route"
)

// Route-status rule classes: the router's per-net outcome promoted to
// verification violations, so the flow's VerifyMode governs whether a
// partial routing is tolerated (warn lists the nets) or rejected
// (fail).
const (
	// RuleRouteFailed marks a net the router left without geometry.
	RuleRouteFailed Rule = "route_failed"
	// RuleRouteOverflow marks a routed net riding at least one
	// over-capacity gcell edge.
	RuleRouteOverflow Rule = "route_overflow"
)

// CheckRouteStatus converts the router's per-net status into a
// report: one route_failed violation per net without geometry, one
// route_overflow violation per congested net.
func CheckRouteStatus(res *route.Result) *Report {
	rep := &Report{}
	if res == nil {
		return rep
	}
	for _, n := range res.Failed {
		msg := "net failed to route"
		if nr := res.Nets[n]; nr != nil && nr.Err != "" {
			msg = nr.Err
		}
		rep.Add(Violation{Rule: RuleRouteFailed, Nets: []string{n}, Msg: msg})
	}
	for _, n := range res.Overflowed {
		rep.Add(Violation{Rule: RuleRouteOverflow, Nets: []string{n}, Msg: "net rides an over-capacity routing edge"})
	}
	return rep
}
