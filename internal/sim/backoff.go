package sim

import "math/rand"

// Doubled is base doubled n times, capped at max: min(base·2ⁿ, max) for a
// positive base, and base for n ≤ 0. It does not overflow at large n. Frame
// retransmission, DMA resubmission and RDMA verb retransmission wait for it
// deterministically.
func Doubled(base, max Time, n int) Time {
	d := base
	for ; n > 0 && d < max; n-- {
		d += min(d, max-d)
	}
	return min(d, max)
}

// Backoff returns a randomized capped-exponential delay for the given retry
// attempt (0-based): the window is Doubled(base, max, attempt), and the
// returned delay is drawn uniformly from the upper half of the window so
// consecutive retries always make progress but still decorrelate. Aborted
// transactions retry after it, so hot-key livelock decays instead of
// re-colliding at a fixed cadence.
func Backoff(rng *rand.Rand, base, max Time, attempt int) Time {
	window := Doubled(base, max, attempt)
	// Upper-half jitter: [window/2, window).
	half := window / 2
	if half <= 0 {
		return window
	}
	return half + Time(rng.Int63n(int64(half)))
}
