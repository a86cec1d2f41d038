package place

// CheckIncremental turns on the assertion that every move's
// incremental cost equals a from-scratch evaluation (see
// debugCheckIncremental) and returns the function that turns it off.
func CheckIncremental() (off func()) {
	debugCheckIncremental = true
	return func() { debugCheckIncremental = false }
}
