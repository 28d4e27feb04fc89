//go:build !race

// Package raceflag tells tests whether the race detector is compiled in:
// allocation-budget tests skip under it, because its instrumentation
// allocates.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
