// Package units parses and formats engineering-notation values as used
// in SPICE decks and EDA reports: "1n", "2.5u", "3meg", "4.7k", "0.8",
// "10fF" (trailing unit letters are ignored when unambiguous).
//
// The SPICE suffix convention is case-insensitive:
//
//	f = 1e-15   p = 1e-12   n = 1e-9   u = 1e-6   m = 1e-3
//	k = 1e3     meg = 1e6   g = 1e9    t = 1e12
//
// Note that "m" is milli and "meg" is mega, following SPICE rather
// than SI.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// suffixes maps lower-case SPICE suffixes to multipliers. Longer
// suffixes must be matched before their prefixes (meg before m).
var suffixes = []struct {
	text string
	mult float64
}{
	{"meg", 1e6},
	{"mil", 25.4e-6}, // SPICE legacy: mil = 25.4 µm
	{"t", 1e12},
	{"g", 1e9},
	{"k", 1e3},
	{"m", 1e-3},
	{"u", 1e-6},
	{"n", 1e-9},
	{"p", 1e-12},
	{"f", 1e-15},
	{"a", 1e-18},
}

// Parse converts an engineering-notation string to a float64. Any
// alphabetic characters following a recognized suffix are ignored
// (e.g. "10pF" parses as 10e-12); unrecognized trailing letters with
// no numeric prefix are an error.
func Parse(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("units: empty value")
	}
	// Split numeric prefix from alphabetic tail. Scientific notation
	// ("1e-9", "2E6") must keep its exponent inside the numeric part.
	i := numericPrefixLen(s)
	if i == 0 {
		return 0, fmt.Errorf("units: %q has no numeric prefix", s)
	}
	num, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad number %q: %v", s[:i], err)
	}
	tail := strings.ToLower(s[i:])
	if tail == "" {
		return num, nil
	}
	for _, suf := range suffixes {
		if strings.HasPrefix(tail, suf.text) {
			v := num * suf.mult
			if math.IsInf(v, 0) {
				return 0, fmt.Errorf("units: %q is out of range", s)
			}
			return v, nil
		}
	}
	// Unknown letters directly after a number are treated as a unit
	// name (e.g. "3V", "10Hz") with multiplier 1, matching SPICE.
	return num, nil
}

// numericPrefixLen returns the length of the leading float literal in
// s, including sign, decimal point, and a well-formed exponent.
func numericPrefixLen(s string) int {
	i := 0
	n := len(s)
	if i < n && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits := 0
	for i < n && (s[i] >= '0' && s[i] <= '9') {
		i++
		digits++
	}
	if i < n && s[i] == '.' {
		i++
		for i < n && (s[i] >= '0' && s[i] <= '9') {
			i++
			digits++
		}
	}
	if digits == 0 {
		return 0
	}
	// Exponent: only consume if it is a complete, valid exponent,
	// otherwise "1e" in "1end" would break suffix handling. SPICE has
	// no suffix starting with 'e', so 'e'/'E' followed by digits (or
	// sign+digits) is always an exponent.
	if i < n && (s[i] == 'e' || s[i] == 'E') {
		j := i + 1
		if j < n && (s[j] == '+' || s[j] == '-') {
			j++
		}
		k := j
		for k < n && (s[k] >= '0' && s[k] <= '9') {
			k++
		}
		if k > j {
			i = k
		}
	}
	return i
}

// MustParse is Parse that panics on error; for use with literals in
// tests and library tables.
func MustParse(s string) float64 {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Format renders v in engineering notation with the given number of
// significant digits, choosing the largest suffix with mantissa >= 1.
func Format(v float64, sig int) string {
	if v == 0 {
		return "0"
	}
	if math.IsNaN(v) {
		return "NaN"
	}
	if math.IsInf(v, 0) {
		if v > 0 {
			return "+Inf"
		}
		return "-Inf"
	}
	neg := v < 0
	a := math.Abs(v)
	type unit struct {
		mult float64
		text string
	}
	tbl := []unit{
		{1e12, "T"}, {1e9, "G"}, {1e6, "meg"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"},
		{1e-12, "p"}, {1e-15, "f"}, {1e-18, "a"},
	}
	for _, u := range tbl {
		if a >= u.mult*0.9999999999 {
			m := v / u.mult
			s := strconv.FormatFloat(m, 'g', sig, 64)
			return s + u.text
		}
	}
	s := strconv.FormatFloat(a/1e-18, 'g', sig, 64)
	if neg {
		s = "-" + s
	}
	return s + "a"
}
