// Package sharedmutbad is analyzer test fodder: it mutates shared
// pdk/circuit values inside goroutines in ways sharedmut must flag,
// next to goroutine-local mutation it must accept.
package sharedmutbad

import (
	"primopt/internal/circuit"
	"primopt/internal/pdk"
)

func bad(t *pdk.Tech, nl *circuit.Netlist) {
	done := make(chan struct{})
	go func() {
		// want: captured tech mutated
		t.FinPitch = 32
		// want: captured netlist mutated through a method
		nl.RenameNet("a", "b")
		close(done)
	}()
	<-done
}

func badDevice(d *circuit.Device) {
	go func() {
		// want: captured device mutated through a field write
		d.MOS.NFin = 8
	}()
}

func good(t *pdk.Tech) {
	done := make(chan struct{})
	go func() {
		// A goroutine-local clone is free to change.
		local := *t
		local.FinPitch = 32
		// Reads of the captured value are fine.
		_ = t.PolyPitch
		close(done)
	}()
	<-done
}

func goodLocalNetlist() {
	go func() {
		nl := circuit.New("scratch")
		nl.RenameNet("x", "y")
	}()
}
