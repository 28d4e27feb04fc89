package sim

import (
	"math"
	"slices"
	"testing"
)

// TestDoubled pins the three deterministic retry sequences Doubled serves to
// the values their hand-written loops produced: simnet's retransmission
// (attempt n waits Doubled(8µs, 100µs, n)), nicrt's DMA resubmission (its
// attempt n ≥ 1 waits Doubled(2µs, 50µs, n-1)) and an RDMA verb timer with a
// 100µs base (the attempt'th re-arm waits Doubled(T, 8T, attempt)).
func TestDoubled(t *testing.T) {
	const T = 100 * Microsecond
	for _, tc := range []struct {
		name      string
		base, max Time
		from      int
		want      []Time
	}{
		{"simnet retransmit", 8 * Microsecond, 100 * Microsecond, 0,
			[]Time{8 * Microsecond, 16 * Microsecond, 32 * Microsecond, 64 * Microsecond, 100 * Microsecond, 100 * Microsecond}},
		{"nicrt DMA resubmit", 2 * Microsecond, 50 * Microsecond, -1,
			[]Time{2 * Microsecond, 2 * Microsecond, 4 * Microsecond, 8 * Microsecond, 16 * Microsecond, 32 * Microsecond, 50 * Microsecond, 50 * Microsecond}},
		{"rdma verb timer", T, 8 * T, 0, []Time{T, 2 * T, 4 * T, 8 * T, 8 * T}},
	} {
		var got []Time
		for n := tc.from; len(got) < len(tc.want); n++ {
			got = append(got, Doubled(tc.base, tc.max, n))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := Doubled(3, math.MaxInt64, math.MaxInt); got != math.MaxInt64 {
		t.Errorf("Doubled(3, MaxInt64, MaxInt) = %d, want MaxInt64 (no overflow)", int64(got))
	}
}
