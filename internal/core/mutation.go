package core

// Deliberately broken protocol variants for mutation-testing the
// serializability checker (internal/check) and the ownership tests: each
// flips one protocol rule whose violation a checker must catch. These are
// package-level knobs toggled only from same-package tests; every
// production path sees them false.
var (
	// mutSkipValidation commits without re-checking read-set versions
	// (§4.2 step 4 removed): concurrent writers between read and commit go
	// unnoticed.
	mutSkipValidation bool
	// mutUnlockBeforeLog releases every lock (releaseLocks) when entering
	// the log phase, before the write set is durable or applied: a
	// concurrent transaction can read the pre-commit version, validate
	// successfully, and install the same successor version (a classic lost
	// update). The remote ABORTs and the later COMMIT unlock with the
	// tolerant UnlockIf.
	mutUnlockBeforeLog bool
	// mutStaleIndexRead skips the NIC-index update on commit, leaving
	// cached entries serving pre-commit versions and values to later reads
	// and validations.
	mutStaleIndexRead bool
	// mutSnapshotTSAfterRead re-picks the snapshot timestamp per shard as
	// the read fan-out proceeds instead of fixing it once up front: a
	// commit landing between two shard reads fractures the snapshot (the
	// SI checker must flag the torn read).
	mutSnapshotTSAfterRead bool
	// mutGCIgnoreSnapshots makes chain GC ignore open snapshots when
	// computing the low-water mark AND makes a chain-miss read serve the
	// oldest retained version instead of aborting: a long snapshot read
	// racing committing updaters observes a version newer than its
	// timestamp (the SI visibility check must flag it).
	mutGCIgnoreSnapshots bool
	// mutReclaimUnderFaults makes the host log reclaim finished records even
	// where the retention rule keeps them (fault plans, history runs, after a
	// Kill): a recovery vote that needs an applied record's evidence finds it
	// gone and aborts a transaction part of the cluster already applied.
	mutReclaimUnderFaults bool
	// mutRecycleLoggedRows gives a local attempt's rows back to the node's
	// Rows even after they reached the log: a committed row that every
	// replica adopted sits on the free list, and the next execution that
	// takes it rewrites three stores' value in place.
	mutRecycleLoggedRows bool
	// mutTrustObserved makes checkKey accept the version the host observed
	// for a key the NIC index no longer tracks, instead of re-reading the
	// host row (the TPC-C bug of DESIGN §9): two attempts that observed the
	// same row before either committed both install its successor version.
	mutTrustObserved bool
)
