// Package core implements the Xenic transaction system (§4): the
// coordinator-side NIC state machine with function shipping and multi-hop
// OCC, the server-side NIC handlers over the co-designed data store, the
// host-side application threads with the local-transaction fast path, and
// the Robinhood worker threads that apply logged write sets.
package core

import (
	"fmt"

	"xenic/internal/fault"
	"xenic/internal/membership"
	"xenic/internal/model"
	"xenic/internal/nicrt"
)

// Features are the protocol-level toggles evaluated in §5.7 (Figure 9),
// plus the runtime toggles forwarded to the NIC runtime.
type Features struct {
	// SmartRemoteOps combines read+lock into one EXECUTE per shard and
	// validates per shard. Off: DrTM+H-style separate per-key read, lock,
	// and validate requests (the "Xenic baseline" of §5.7).
	SmartRemoteOps bool
	// NICExecution runs annotated transactions' execution functions on the
	// coordinator-side NIC (§4.2.2). Off: every round trips to the host.
	NICExecution bool
	// MultiHopOCC ships eligible transactions to a remote primary NIC and
	// routes backup acks straight to the coordinator (§4.2.3).
	MultiHopOCC bool
	// EthAggregation / AsyncDMA are the runtime optimizations (§4.3).
	EthAggregation bool
	AsyncDMA       bool
}

// AllFeatures enables the full Xenic design.
func AllFeatures() Features {
	return Features{
		SmartRemoteOps: true, NICExecution: true, MultiHopOCC: true,
		EthAggregation: true, AsyncDMA: true,
	}
}

// BaselineFeatures disables every optimization (the §5.7 starting point).
func BaselineFeatures() Features { return Features{} }

func (f Features) runtime() nicrt.Features {
	return nicrt.Features{EthAggregation: f.EthAggregation, AsyncDMA: f.AsyncDMA}
}

// Config assembles a Xenic cluster.
type Config struct {
	// Nodes is the server count (one primary shard per node).
	Nodes int
	// Replication is the total replicas per shard (primary + backups);
	// the evaluation uses 3 (§5.2).
	Replication int
	// AppThreads / WorkerThreads are host coordinator-application and
	// Robinhood-worker thread counts per node (§5.6).
	AppThreads    int
	WorkerThreads int
	// NICCores is the number of active SmartNIC cores per node.
	NICCores int
	// Outstanding is the closed-loop transaction window per app thread.
	Outstanding int
	// MaxRetries bounds OCC retries per transaction before reporting
	// failure to the application (it then counts as aborted).
	MaxRetries int
	Features   Features
	Params     model.Params
	// Membership tunes the lease-based cluster manager (§4.2.1).
	Membership membership.Config
	Seed       int64
	// Faults, when non-nil, enables deterministic fault injection: frame
	// drop/duplication/delay at the link layer, DMA errors and stalls, NIC
	// core stalls, scheduled crashes and partitions — plus the hardening
	// paths that survive them (coordinator watchdog timeouts, duplicate
	// suppression, dead-peer gating). nil runs are byte-identical to builds
	// without the fault subsystem.
	Faults *fault.Plan
	// MVCC enables bounded per-key version chains and the lock-free,
	// validation-free snapshot path for read-only transactions (DESIGN.md
	// §12). Off (the default), runs are byte-identical to builds without
	// the MVCC subsystem.
	MVCC bool
	// MVCCKeep is the bounded chain depth K (old versions retained per
	// key); 0 means the default of 8.
	MVCCKeep int
}

// DefaultConfig mirrors the paper's testbed: 6 servers, 3-way replication.
func DefaultConfig() Config {
	return Config{
		Nodes:         6,
		Replication:   3,
		AppThreads:    4,
		WorkerThreads: 3,
		NICCores:      16,
		Outstanding:   8,
		MaxRetries:    64,
		Features:      AllFeatures(),
		Params:        model.Default(),
		Membership:    membership.DefaultConfig(),
		Seed:          1,
	}
}

// validate checks what only Xenic configures; the chassis checks the rest.
func (c Config) validate() error {
	if c.WorkerThreads < 1 || c.NICCores < 1 {
		return fmt.Errorf("core: thread counts must be positive")
	}
	if c.MVCC && c.Nodes > 64 {
		// The commit-timestamp oracle tracks each commit's pending write
		// shards as a 64-bit set (one shard per node).
		return fmt.Errorf("core: MVCC supports at most 64 nodes, have %d", c.Nodes)
	}
	return nil
}
