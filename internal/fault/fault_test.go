package fault

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"primopt/internal/obs"
)

func TestNilInjectorIsFree(t *testing.T) {
	var in *Injector
	if err := in.Hit(context.Background(), SiteSpiceOP); err != nil {
		t.Fatalf("nil injector Hit: %v", err)
	}
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if in.Spec() != "" || in.Hits(SiteSpiceOP) != 0 || in.Armed() != nil {
		t.Fatal("nil injector leaks state")
	}
}

func TestEmptySpecIsNil(t *testing.T) {
	in, err := New(1, "  ")
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Fatal("empty spec should return a nil injector")
	}
}

func TestErrorAtNthHit(t *testing.T) {
	in, err := New(1, "spice.op:error@3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := in.Hit(context.Background(), SiteSpiceOP)
		if i == 3 {
			if err == nil {
				t.Fatalf("hit %d: expected injected error", i)
			}
			var fe *Error
			if !errors.As(err, &fe) || fe.Site != SiteSpiceOP || fe.Hit != 3 {
				t.Fatalf("hit %d: wrong error %v", i, err)
			}
			if !IsInjected(err) {
				t.Fatalf("IsInjected(%v) = false", err)
			}
		} else if err != nil {
			t.Fatalf("hit %d: unexpected error %v", i, err)
		}
	}
	if got := in.Hits(SiteSpiceOP); got != 5 {
		t.Fatalf("Hits = %d, want 5", got)
	}
}

func TestErrorFromNthHitOn(t *testing.T) {
	in, err := New(1, "route.net:error@2+")
	if err != nil {
		t.Fatal(err)
	}
	if in.Hit(context.Background(), SiteRouteNet) != nil {
		t.Fatal("hit 1 should pass")
	}
	for i := 2; i <= 4; i++ {
		if in.Hit(context.Background(), SiteRouteNet) == nil {
			t.Fatalf("hit %d should fail", i)
		}
	}
}

func TestPanicMode(t *testing.T) {
	in, err := New(1, "place.replica:panic@1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Site != SitePlaceReplica {
			t.Fatalf("recovered %v, want *fault.Error at place.replica", r)
		}
	}()
	in.Hit(context.Background(), SitePlaceReplica)
	t.Fatal("Hit should have panicked")
}

func TestDelayMode(t *testing.T) {
	in, err := New(1, "extract:delay=30ms@1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := in.Hit(context.Background(), SiteExtract); err != nil {
		t.Fatalf("delay mode returned error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay fired too fast: %v", d)
	}
}

func TestProbabilisticDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		in, err := New(seed, "spice.dc:error~0.3")
		if err != nil {
			t.Fatal(err)
		}
		var fired []int
		for i := 1; i <= 200; i++ {
			if in.Hit(context.Background(), SiteSpiceDC) != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("p=0.3 over 200 hits fired %d times — stream looks broken", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different firing counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different firing sequence at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical firing sequences")
	}
}

func TestMultiSiteSpec(t *testing.T) {
	in, err := New(1, "spice.op:error@1, route.net:panic@2")
	if err != nil {
		t.Fatal(err)
	}
	armed := in.Armed()
	if len(armed) != 2 || armed[0] != "route.net" || armed[1] != "spice.op" {
		t.Fatalf("Armed = %v", armed)
	}
	if !in.Enabled() {
		t.Fatal("armed injector reports disabled")
	}
	// Unarmed site stays free.
	if err := in.Hit(context.Background(), SiteEvcacheCompute); err != nil {
		t.Fatalf("unarmed site: %v", err)
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		"spice.op",                          // no mode
		"nosuch.site:error@1",               // unknown site
		"spice.op:explode@1",                // unknown mode
		"spice.op:error@0",                  // bad index
		"spice.op:error@x",                  // bad index
		"spice.op:delay@1",                  // delay without duration
		"spice.op:delay=zzz@1",              // bad duration
		"spice.op:error=5@1",                // value on non-delay mode
		"spice.op:error~1.5",                // bad probability
		"spice.op:error@2~0.5",              // @N with ~P
		"spice.op:error@1,spice.op:panic@2", // duplicate site
	}
	for _, spec := range bad {
		if _, err := New(1, spec); err == nil {
			t.Errorf("New(%q) accepted a bad spec", spec)
		}
	}
}

func TestCountersEmitted(t *testing.T) {
	tr := obs.New()
	in, err := New(1, "spice.op:error@1+")
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.With(context.Background(), tr)
	in.Hit(ctx, SiteSpiceOP)
	in.Hit(ctx, SiteSpiceOP)
	if got := tr.Counter("fault.injected").Value(); got != 2 {
		t.Fatalf("fault.injected = %d, want 2", got)
	}
	if got := tr.Counter("fault.injected.spice.op").Value(); got != 2 {
		t.Fatalf("fault.injected.spice.op = %d, want 2", got)
	}
}

func TestContextCarriage(t *testing.T) {
	in, err := New(1, "extract:error@1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := With(context.Background(), in)
	if got := From(ctx); got != in {
		t.Fatalf("From(ctx) = %p, want %p", got, in)
	}
	if got := From(context.Background()); got != nil {
		t.Fatalf("From(background) = %p, want nil", got)
	}
	// With(nil injector) is a no-op.
	if ctx2 := With(context.Background(), nil); From(ctx2) != nil {
		t.Fatal("With(nil) should leave injection off")
	}
}

func TestErrorText(t *testing.T) {
	e := &Error{Site: "spice.op", Hit: 3}
	if !strings.Contains(e.Error(), "spice.op") || strings.Contains(e.Error(), "3") {
		t.Fatalf("error text %q: want the site and no hit index", e.Error())
	}
	if IsInjected(errors.New("organic")) {
		t.Fatal("organic error reported as injected")
	}
}
