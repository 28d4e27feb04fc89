package model

import "xenic/internal/sim"

// The constant block: modelled times that no experiment varies, so they are
// constants rather than Params fields. None is a paper measurement; each
// says what it drives. TestNoModelledTimeOutsideModel fails on a literal time
// anywhere else in the module.

// Retry back-off windows (sim.Backoff) of an application thread after an
// aborted attempt. Not in the paper: they set how fast repeated conflicts on
// a hot key decay, and each system's pair shows in its goldens.
const (
	RetryBackoffBase    = 2 * sim.Microsecond // Xenic
	RetryBackoffMax     = 64 * sim.Microsecond
	BaselineBackoffBase = 1 * sim.Microsecond // the four RDMA baselines
	BaselineBackoffMax  = 16 * sim.Microsecond
)

// Deterministic capped doubling (sim.Doubled) after an injected fault. Not
// in the paper: they set how long a dropped frame or a failed DMA vector
// delays its continuation.
const (
	RetxBase     = 8 * sim.Microsecond // simnet retransmits after 8, 16, ..., 100µs
	RetxMax      = 100 * sim.Microsecond
	DMARetryBase = 2 * sim.Microsecond // nicrt resubmits after 2, 4, ..., 32, 50µs
	DMARetryMax  = 50 * sim.Microsecond
)

// Default watchdogs, which a fault plan's txntimeout= and verbtimeout= terms
// override: the coordinator's per-phase deadline and the RDMA verb
// retransmission timeout. Not in the paper: they bound how long a fault can
// park a transaction.
const (
	DefaultTxnTimeout  = 500 * sim.Microsecond
	DefaultVerbTimeout = 100 * sim.Microsecond
)

// Lease service timers (internal/membership). §4.2.1 describes the leases
// but gives no values: they set how long a failed node goes unnoticed.
const (
	LeaseDuration    = 2 * sim.Millisecond   // a lease lasts this long unrenewed
	LeaseRenewPeriod = 500 * sim.Microsecond // healthy nodes renew this often
	LeaseCheckPeriod = 250 * sim.Microsecond // the manager scans for expiry this often
	LeaseNotifyDelay = 100 * sim.Microsecond // manager-to-node view propagation
)

// State transfer to a restarted node (DESIGN §10). Not in the paper: they
// set how fast a rejoiner catches up.
const (
	// PullRetry is the resend interval for an unanswered StatePull. A pull
	// can race the serving node's own view notification and die on a fence
	// at either end (the receiver's previous view still lists the rejoiner
	// as evicted, or the reply carries the pre-join epoch), so the rejoiner
	// re-pulls until a chunk advances the transfer. Duplicate pulls are
	// harmless: index 0 just re-snapshots, later indexes re-serve a chunk
	// the version-guarded apply deduplicates.
	PullRetry = 250 * sim.Microsecond
	// PullServeDelay is how long a primary whose promotion scan is still
	// deciding waits before serving a pull.
	PullServeDelay = 50 * sim.Microsecond
	// FwdLinger is how long a primary keeps forwarding commits after the
	// rejoiner is first listed as a live backup: commits from coordinators
	// still on the pre-admission view (and local host-path commits, which
	// carry no frame epoch) overlap direct replication until every
	// pre-admission transaction has resolved; past the coordinator watchdog
	// plus retries they all have, and the session retires.
	FwdLinger = 2 * sim.Millisecond
)

// DMAQueueWindow is the element work the DMA engine's hardware queues hold:
// admission stalls while more is outstanding, so a saturated engine
// backpressures submitters instead of buffering unboundedly. §3.5 gives the
// eight queues but not their depth.
const DMAQueueWindow = 10 * sim.Microsecond

// NICNopHandler is the body of Fig. 2's NIC RPC handler. Not in the paper:
// it drives the fig2 NIC-RPC row.
const NICNopHandler = 60 * sim.Nanosecond

// Workload CPU costs: GenCost is charged on the host thread that builds a
// transaction, HostCost per execution-function invocation (scaled by
// NICCoreSpeed on a NIC core). Not in the paper: they set the host-thread
// cap on Xenic's peaks.
const (
	// TPC-C new-order generation reads the district, looks up each item in
	// the catalogue and builds the records (the chopped local logic of
	// §5.3): a base cost plus one per item.
	TPCCNewOrderGenCost        = 1200 * sim.Nanosecond
	TPCCNewOrderGenCostPerItem = 180 * sim.Nanosecond
	TPCCPaymentGenCost         = 900 * sim.Nanosecond
	TPCCOrderStatusGenCost     = 1500 * sim.Nanosecond
	TPCCDeliveryGenCost        = 4000 * sim.Nanosecond // B+tree scans for oldest new-orders
	TPCCStockLevelGenCost      = 3000 * sim.Nanosecond
	TPCCNewOrderHostCost       = 1200 * sim.Nanosecond
	TPCCPaymentHostCost        = 600 * sim.Nanosecond
	TPCCDeliveryHostCost       = 2500 * sim.Nanosecond

	SmallbankGenCost                 = 120 * sim.Nanosecond
	SmallbankDepositCheckingHostCost = 150 * sim.Nanosecond
	SmallbankTransactSavingsHostCost = 150 * sim.Nanosecond
	SmallbankAmalgamateHostCost      = 200 * sim.Nanosecond
	SmallbankWriteCheckHostCost      = 180 * sim.Nanosecond

	RetwisGenCost       = 100 * sim.Nanosecond
	RetwisTouchHostCost = 200 * sim.Nanosecond
)
