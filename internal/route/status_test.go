package route

import (
	"context"
	"testing"

	"primopt/internal/fault"
	"primopt/internal/geom"
)

func twoNets() []NetReq {
	return []NetReq{
		{Name: "a", Pins: []Pin{
			{At: geom.Point{X: 500, Y: 500}},
			{At: geom.Point{X: 8500, Y: 500}},
		}},
		{Name: "b", Pins: []Pin{
			{At: geom.Point{X: 500, Y: 8500}},
			{At: geom.Point{X: 8500, Y: 8500}},
		}},
	}
}

// TestRouteNetFailureIsPerNet: an injected per-net failure marks that
// net NetFailed with the error text, leaves the other net routed, and
// does not abort the run.
func TestRouteNetFailureIsPerNet(t *testing.T) {
	inj, err := fault.New(1, fault.SiteRouteNet+":error@1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := fault.With(context.Background(), inj)
	res, err := RouteCtx(ctx, tech, region(), twoNets())
	if err != nil {
		t.Fatalf("run aborted on a per-net failure: %v", err)
	}
	// Same pin counts, so order is by name: "a" takes the first hit.
	if got := res.Failed; len(got) != 1 || got[0] != "a" {
		t.Fatalf("Failed = %v, want [a]", got)
	}
	nr := res.Nets["a"]
	if nr == nil || nr.Status != NetFailed || nr.Err == "" {
		t.Errorf("net a = %+v, want NetFailed with error text", nr)
	}
	if b := res.Nets["b"]; b == nil || b.Status != NetRouted || b.TotalLength() == 0 {
		t.Errorf("net b = %+v, want routed", b)
	}
}

// TestRouteOverflowStatus: more same-endpoint nets than the source
// gcell has escape capacity must leave overflow, and every reported
// net must actually exist with NetOverflow status.
func TestRouteOverflowStatus(t *testing.T) {
	var nets []NetReq
	for _, name := range []string{"n01", "n02", "n03", "n04", "n05", "n06",
		"n07", "n08", "n09", "n10", "n11", "n12", "n13", "n14", "n15",
		"n16", "n17", "n18", "n19", "n20"} {
		nets = append(nets, NetReq{Name: name, Pins: []Pin{
			{At: geom.Point{X: 500, Y: 500}},
			{At: geom.Point{X: 8500, Y: 8500}},
		}})
	}
	res, err := RouteCtx(context.Background(), tech, region(), nets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Overflowed) == 0 || res.OverflowEdges == 0 {
		t.Fatalf("no overflow with 20 nets on capacity-2 edges: %+v", res)
	}
	for _, n := range res.Overflowed {
		nr := res.Nets[n]
		if nr == nil || nr.Status != NetOverflow {
			t.Errorf("overflowed net %s = %+v, want NetOverflow", n, nr)
		}
	}
}

// TestRouteDefaultNoRipup: two nets far apart route cleanly in one
// pass, with no failed or overflowed net.
func TestRouteDefaultNoRipup(t *testing.T) {
	res, err := RouteCtx(context.Background(), tech, region(), twoNets())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 || len(res.Overflowed) != 0 {
		t.Errorf("clean run: failed=%v overflowed=%v", res.Failed, res.Overflowed)
	}
	for _, nr := range res.Nets {
		if nr.Status != NetRouted {
			t.Errorf("net %s status = %v, want NetRouted", nr.Name, nr.Status)
		}
	}
}
