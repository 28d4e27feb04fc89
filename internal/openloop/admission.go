package openloop

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"xenic/internal/sim"
)

// Decision is an admission-control verdict for one arrival.
type Decision uint8

const (
	// Admit injects the transaction now.
	Admit Decision = iota
	// Delay parks the arrival in the backpressure queue until capacity frees.
	Delay
	// Reject drops the arrival; the client sees an admission error.
	Reject
)

// Admission is a pluggable admission-control policy. Arrive is consulted
// once per arrival (and again per queued arrival when capacity frees);
// Release is called when an admitted transaction completes. Policies are
// pure functions of simulated time and the supplied occupancy, so runs stay
// deterministic.
type Admission interface {
	Name() string
	Arrive(now sim.Time, inflight, queued int) Decision
	Release(now sim.Time)
}

// Unlimited admits every arrival: the no-backpressure baseline whose p99
// diverges past saturation.
type Unlimited struct{}

// Name implements Admission.
func (Unlimited) Name() string { return "none" }

// Arrive implements Admission.
func (Unlimited) Arrive(sim.Time, int, int) Decision { return Admit }

// Release implements Admission.
func (Unlimited) Release(sim.Time) {}

// TokenBucket rate-limits admissions: tokens accrue at Rate per second of
// simulated time up to Burst, and an arrival without a token is rejected
// outright (no queueing — the NIC-edge "shed early" policy).
type TokenBucket struct {
	Rate  float64 // tokens per simulated second
	Burst float64 // bucket capacity; also the initial fill

	tokens float64
	last   sim.Time
	primed bool
}

// NewTokenBucket returns a token-bucket policy admitting rate txns/sec with
// the given burst allowance.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return &TokenBucket{Rate: rate, Burst: burst}
}

// Name implements Admission.
func (tb *TokenBucket) Name() string { return "token" }

// Arrive implements Admission.
func (tb *TokenBucket) Arrive(now sim.Time, _, _ int) Decision {
	if !tb.primed {
		tb.tokens = tb.Burst
		tb.last = now
		tb.primed = true
	}
	tb.tokens += float64(now-tb.last) / float64(sim.Second) * tb.Rate
	if tb.tokens > tb.Burst {
		tb.tokens = tb.Burst
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return Admit
	}
	return Reject
}

// Release implements Admission.
func (tb *TokenBucket) Release(sim.Time) {}

// QueueDepth bounds admitted-but-unfinished transactions at MaxInFlight —
// the closed-loop window re-imposed at the admission edge. Excess arrivals
// wait in a queue of at most MaxQueue; beyond that they are rejected. This
// is the policy that keeps in-system p99 bounded past the saturation knee.
type QueueDepth struct {
	MaxInFlight int
	MaxQueue    int
}

// NewQueueDepth returns a queue-depth policy bounding in-flight work.
func NewQueueDepth(maxInFlight, maxQueue int) *QueueDepth {
	return &QueueDepth{MaxInFlight: maxInFlight, MaxQueue: maxQueue}
}

// Name implements Admission.
func (qd *QueueDepth) Name() string { return "queue" }

// Arrive implements Admission.
func (qd *QueueDepth) Arrive(_ sim.Time, inflight, queued int) Decision {
	if inflight < qd.MaxInFlight {
		return Admit
	}
	if queued < qd.MaxQueue {
		return Delay
	}
	return Reject
}

// Release implements Admission.
func (qd *QueueDepth) Release(sim.Time) {}

// ParseAdmission maps a CLI policy spec to an Admission:
//
//	none                     no admission control (default when empty)
//	token:RATE[:BURST]       token bucket, RATE txns/sec (BURST defaults to RATE/100)
//	queue:DEPTH[:QLEN]       queue-depth bound (QLEN defaults to 4*DEPTH)
func ParseAdmission(spec string) (Admission, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "", "none", "unlimited":
		if len(parts) > 1 {
			return nil, fmt.Errorf("openloop: policy %q takes no arguments", parts[0])
		}
		return Unlimited{}, nil
	case "token":
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("openloop: want token:RATE[:BURST], got %q", spec)
		}
		// NaN and Inf parse as floats but leave the bucket admitting nothing,
		// so the range checks exclude them.
		rate, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || !(rate > 0 && rate <= math.MaxFloat64) {
			return nil, fmt.Errorf("openloop: bad token rate %q", parts[1])
		}
		burst := rate / 100
		if burst < 1 {
			burst = 1
		}
		if len(parts) == 3 {
			if burst, err = strconv.ParseFloat(parts[2], 64); err != nil || !(burst >= 1 && burst <= math.MaxFloat64) {
				return nil, fmt.Errorf("openloop: bad token burst %q", parts[2])
			}
		}
		return NewTokenBucket(rate, burst), nil
	case "queue":
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("openloop: want queue:DEPTH[:QLEN], got %q", spec)
		}
		depth, err := strconv.Atoi(parts[1])
		if err != nil || depth <= 0 {
			return nil, fmt.Errorf("openloop: bad queue depth %q", parts[1])
		}
		qlen := 4 * min(depth, math.MaxInt/4) // a huge depth must not wrap negative
		if len(parts) == 3 {
			if qlen, err = strconv.Atoi(parts[2]); err != nil || qlen < 0 {
				return nil, fmt.Errorf("openloop: bad queue length %q", parts[2])
			}
		}
		return NewQueueDepth(depth, qlen), nil
	default:
		return nil, fmt.Errorf("openloop: unknown admission policy %q (want none, token:RATE[:BURST], or queue:DEPTH[:QLEN])", parts[0])
	}
}
