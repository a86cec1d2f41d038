package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestParseBasic(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1", 1},
		{"0", 0},
		{"-3.5", -3.5},
		{"1n", 1e-9},
		{"2.5u", 2.5e-6},
		{"3meg", 3e6},
		{"3MEG", 3e6},
		{"4.7k", 4.7e3},
		{"10f", 10e-15},
		{"10fF", 10e-15},
		{"1m", 1e-3},
		{"1M", 1e-3}, // SPICE: M is milli, not mega
		{"7p", 7e-12},
		{"2g", 2e9},
		{"1t", 1e12},
		{"1a", 1e-18},
		{"1e-9", 1e-9},
		{"2E6", 2e6},
		{"1.5e3k", 1.5e6}, // exponent then suffix
		{"3V", 3},
		{"10Hz", 10},
		{"+2u", 2e-6},
		{"-2u", -2e-6},
		{".5n", 0.5e-9},
		{"46u", 46e-6},
		{"14n", 14e-9},
		{"1mil", 25.4e-6},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", c.in, err)
			continue
		}
		if !approx(got, c.want, 1e-12) {
			t.Errorf("Parse(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "   ", "abc", "u", "-", "+", ".", "-.u", "1e308meg", "-1e308meg"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error, got none", in)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("notanumber")
}

func TestFormatBasic(t *testing.T) {
	cases := []struct {
		in   float64
		sig  int
		want string
	}{
		{0, 3, "0"},
		{1e-9, 3, "1n"},
		{2.5e-6, 3, "2.5u"},
		{4.7e3, 3, "4.7k"},
		{1.96e-3, 3, "1.96m"},
		{3e6, 3, "3meg"},
		{-2e-6, 3, "-2u"},
		{1, 3, "1"},
		{math.NaN(), 3, "NaN"},
		{math.Inf(1), 3, "+Inf"},
		{math.Inf(-1), 3, "-Inf"},
	}
	for _, c := range cases {
		if got := Format(c.in, c.sig); got != c.want {
			t.Errorf("Format(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: Parse(Format(v)) round-trips within formatting precision
// for values in the ranges EDA uses (1e-18 .. 1e12).
func TestFormatParseRoundTrip(t *testing.T) {
	f := func(mant float64, exp int8) bool {
		if math.IsNaN(mant) || math.IsInf(mant, 0) || mant == 0 {
			return true
		}
		e := int(exp)%30 - 15 // 1e-15 .. 1e14
		v := math.Copysign(math.Mod(math.Abs(mant), 9)+1, mant) * math.Pow(10, float64(e))
		s := Format(v, 12)
		got, err := Parse(s)
		if err != nil {
			t.Logf("Format(%g) = %q unparseable: %v", v, s, err)
			return false
		}
		return approx(got, v, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: parsing is case-insensitive for all suffixes.
func TestParseCaseInsensitive(t *testing.T) {
	for _, suf := range []string{"f", "p", "n", "u", "m", "k", "meg", "g", "t"} {
		lo, err1 := Parse("3" + suf)
		hi, err2 := Parse("3" + strings.ToUpper(suf))
		if err1 != nil || err2 != nil {
			t.Fatalf("suffix %q: errors %v %v", suf, err1, err2)
		}
		if lo != hi {
			t.Errorf("suffix %q: case-sensitive parse %g vs %g", suf, lo, hi)
		}
	}
}

func TestNumericPrefixLen(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"1", 1}, {"1n", 1}, {"-2.5u", 4}, {"1e-9", 4}, {"1end", 1},
		{"1e9x", 3}, {"abc", 0}, {"", 0}, {".5", 2}, {"+.5e2", 5},
	}
	for _, c := range cases {
		if got := numericPrefixLen(c.in); got != c.want {
			t.Errorf("numericPrefixLen(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
