package flow

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"primopt/internal/circuit"
	"primopt/internal/circuits"
	"primopt/internal/primlib"
)

// RouterConstraints renders the flow's output contract for a detailed
// router (the paper's Fig. 6(c)): the reconciled number of parallel
// routes per net, and the symmetric-net pairs the router must keep
// geometrically matched (the paper's matching-net constraint [19]).
// Returns an empty string for schematic runs.
func (r *Result) RouterConstraints(bm *circuits.Benchmark) string {
	if len(r.NetWires) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# detailed-router constraints for %s (%s flow)\n", r.Benchmark, r.Mode)

	nets := make([]string, 0, len(r.NetWires))
	for n := range r.NetWires {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	for _, n := range nets {
		fmt.Fprintf(&b, "net %-8s parallel_routes %d\n", n, r.NetWires[n])
	}

	// Symmetric net pairs, from the primitives' symmetric ports.
	seen := map[string]bool{}
	for _, in := range bm.Insts {
		entry, err := primlib.Lookup(context.TODO(), in.Kind)
		if err != nil {
			continue
		}
		for _, group := range entry.SymPorts {
			var members []string
			for _, w := range group {
				if net, ok := in.TermNets[w]; ok {
					members = append(members, circuit.NormalizeNet(net))
				}
			}
			if len(members) < 2 || members[0] == members[1] {
				continue
			}
			sort.Strings(members)
			key := strings.Join(members, "|")
			if seen[key] {
				continue
			}
			seen[key] = true
			fmt.Fprintf(&b, "symmetric %s\n", strings.Join(members, " "))
		}
	}
	return b.String()
}
