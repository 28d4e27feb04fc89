package txnmodel

import (
	"fmt"

	"xenic/internal/sim"
)

// Result summarizes one measurement window. It is shared by the Xenic
// cluster (internal/core) and the baseline systems (internal/baseline), so
// harness code can measure any system through one interface and compare the
// numbers field for field.
type Result struct {
	Duration      sim.Time
	Committed     int64 // all committed transactions
	Measured      int64 // workload-counted transactions (e.g. new orders)
	Aborts        int64
	Failed        int64
	PerServerTput float64 // measured transactions /s /server
	Median        sim.Time
	P99           sim.Time
	Mean          sim.Time
	// Abort breakdown by reason. Together with AbortSnapshot below these
	// cover every abort status, so on any run the per-reason fields sum to
	// Aborts (pinned by the accounting cross-check test in core).
	AbortLocked  int64
	AbortVersion int64
	AbortMissing int64
	AbortView    int64
	// AbortTimeout counts coordinator-watchdog expiries (fault runs only;
	// always zero on fault-free runs).
	AbortTimeout int64
	// Read-only breakdown, populated only when the system runs with MVCC
	// snapshot reads enabled (all-zero otherwise, so String() and recorded
	// fingerprints are unchanged for MVCC-off runs).
	ROCommitted   int64
	ROAborts      int64
	AbortSnapshot int64
	ROMedian      sim.Time
	ROP99         sim.Time
	SnapCommitted int64 // read-only txns served by the snapshot path
}

func (r Result) String() string {
	s := fmt.Sprintf("tput=%.0f txn/s/server p50=%v p99=%v aborts=%d",
		r.PerServerTput, r.Median, r.P99, r.Aborts)
	if r.Aborts > 0 {
		s += fmt.Sprintf("(lk=%d ver=%d miss=%d vc=%d",
			r.AbortLocked, r.AbortVersion, r.AbortMissing, r.AbortView)
		// Timeouts only occur on fault runs and print only when present,
		// keeping fault-free output byte-identical to old builds.
		if r.AbortTimeout > 0 {
			s += fmt.Sprintf(" to=%d", r.AbortTimeout)
		}
		s += ")"
	}
	s += fmt.Sprintf(" failed=%d", r.Failed)
	if r.ROCommitted > 0 || r.SnapCommitted > 0 {
		s += fmt.Sprintf(" ro=%d(snap=%d ab=%d snapab=%d p50=%v p99=%v)",
			r.ROCommitted, r.SnapCommitted, r.ROAborts, r.AbortSnapshot,
			r.ROMedian, r.ROP99)
	}
	return s
}
