// Package wire defines the binary formats of every protocol message in the
// system: the Xenic commit protocol messages exchanged between SmartNICs
// (§4.2), the host<->NIC PCIe messages, and the RPC messages the FaSST- and
// DrTM+H-style baselines exchange between hosts. Exact encoded sizes matter:
// the network and PCIe simulators charge for them, so protocol message
// counts and read amplification translate into bandwidth exactly as on the
// testbed.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Type identifies a message.
type Type uint8

// Message type codes. Xenic and the RPC baselines share the commit-protocol
// messages; they differ in where the handler runs (NIC cores vs host cores).
const (
	TInvalid Type = iota
	// Host <-> coordinator-NIC (PCIe).
	TTxnRequest  // host -> NIC: start a transaction
	TReadReturn  // NIC -> host: read-set values for host-side execution
	TWriteSet    // host -> NIC: computed write set, resume commit
	TTxnDone     // NIC -> host: final outcome
	TLogApplyAck // host -> NIC: log records applied, unpin/reclaim
	// NIC <-> NIC (or host <-> host for RPC baselines).
	TExecute      // read read-set, lock write-set at primary
	TExecuteResp  //
	TValidate     // version check read-set at primary
	TValidateResp //
	TLog          // append write-set record at backup
	TLogResp      //
	TCommit       // apply + unlock at primary
	TCommitResp   //
	TAbort        // release locks at primary
	TShipExec     // function-shipped execution at remote primary (§4.2.3)
	TShipResult   //
	// Replication bookkeeping and recovery (§4.2.1).
	TLogCommit      // coordinator -> backup: logged record reached commit point
	TRecoveryQuery  // new/sweeping primary -> backup: do you hold txn's record?
	TRecoveryResp   //
	TRecoveryDecide // primary -> backups: commit or drop a recovering record
	// Rejoin state transfer: a restarted node re-fetches its shards from the
	// current primaries while they keep serving.
	TStatePull    // rejoiner -> primary: request the next snapshot chunk
	TStateChunk   // primary -> rejoiner: sorted key range of the shard
	TStateForward // primary -> rejoiner: a commit applied during catch-up
	// MVCC snapshot reads (read-only fast path): lock-free, validation-free
	// version-chain lookups at a snapshot timestamp.
	TSnapshotRead // coordinator NIC -> primary NIC: read keys visible at TS
	TSnapshotResp //
)

func (t Type) String() string {
	names := [...]string{"invalid", "txn-request", "read-return", "write-set",
		"txn-done", "log-apply-ack", "execute", "execute-resp", "validate",
		"validate-resp", "log", "log-resp", "commit", "commit-resp", "abort",
		"ship-exec", "ship-result", "log-commit", "recovery-query",
		"recovery-resp", "recovery-decide", "state-pull", "state-chunk",
		"state-forward", "snapshot-read", "snapshot-resp"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Status codes carried by responses.
type Status uint8

const (
	StatusOK Status = iota
	StatusAbortLocked
	StatusAbortVersion
	StatusAbortMissing
	// StatusAbortView aborts an in-flight transaction because a view change
	// invalidated its coordinator or a participant shard (§4.2.1).
	StatusAbortView
	// StatusAbortTimeout aborts a transaction whose coordinator watchdog
	// expired while waiting on remote responses (fault-injection runs only):
	// the coordinator releases its locks and retries instead of stranding.
	StatusAbortTimeout
	// StatusAbortSnapshot aborts a snapshot read whose timestamp fell below
	// a primary's version-chain GC horizon (or raced a promotion); the
	// coordinator retries at a fresher snapshot. Never contention-induced.
	StatusAbortSnapshot

	NumStatuses = int(StatusAbortSnapshot) + 1
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAbortLocked:
		return "abort-locked"
	case StatusAbortVersion:
		return "abort-version"
	case StatusAbortMissing:
		return "abort-missing"
	case StatusAbortView:
		return "abort-view"
	case StatusAbortTimeout:
		return "abort-timeout"
	case StatusAbortSnapshot:
		return "abort-snapshot"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// KV is a keyed value with its version.
type KV struct {
	Key     uint64
	Version uint64
	Value   []byte
}

// KeyVer is a key with an expected version (validation).
type KeyVer struct {
	Key     uint64
	Version uint64
}

// Msg is any protocol message.
type Msg interface {
	Type() Type
	// WireSize is the exact encoded byte size; simulators charge for it.
	WireSize() int
	// Marshal appends the encoding to b.
	Marshal(b []byte) []byte
}

// Sizes of fixed encoding elements.
const (
	hdrSize  = 1 + 8 + 1 // type + txn id + src node
	countLen = 2
)

func kvSize(kvs []KV) int {
	n := countLen
	for _, kv := range kvs {
		n += 8 + 8 + 2 + len(kv.Value)
	}
	return n
}

func keysSize(keys []uint64) int { return countLen + 8*len(keys) }

func keyVerSize(kvs []KeyVer) int { return countLen + 16*len(kvs) }

func bytesSize(b []byte) int { return countLen + len(b) }

// --- encoding helpers ---

type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) bytes(p []byte) {
	w.u16(uint16(len(p)))
	w.b = append(w.b, p...)
}
func (w *writer) keys(ks []uint64) {
	w.u16(uint16(len(ks)))
	for _, k := range ks {
		w.u64(k)
	}
}
func (w *writer) kvs(kvs []KV) {
	w.u16(uint16(len(kvs)))
	for _, kv := range kvs {
		w.u64(kv.Key)
		w.u64(kv.Version)
		w.bytes(kv.Value)
	}
}
func (w *writer) keyVers(kvs []KeyVer) {
	w.u16(uint16(len(kvs)))
	for _, kv := range kvs {
		w.u64(kv.Key)
		w.u64(kv.Version)
	}
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated message at offset %d", r.off)
	}
}
func (r *reader) u8() uint8 {
	if r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
func (r *reader) u16() uint16 {
	if r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}
func (r *reader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
func (r *reader) bytes() []byte {
	n := int(r.u16())
	if r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return v
}
func (r *reader) keys() []uint64 {
	n := int(r.u16())
	if r.err != nil || r.off+8*n > len(r.b) {
		r.fail()
		return nil
	}
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = r.u64()
	}
	return ks
}
func (r *reader) kvs() []KV {
	n := int(r.u16())
	if r.err != nil || n > (len(r.b)-r.off)/18 {
		r.fail()
		return nil
	}
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i].Key = r.u64()
		kvs[i].Version = r.u64()
		kvs[i].Value = r.bytes()
	}
	return kvs
}
func (r *reader) keyVers() []KeyVer {
	n := int(r.u16())
	if r.err != nil || n > (len(r.b)-r.off)/16 {
		r.fail()
		return nil
	}
	kvs := make([]KeyVer, n)
	for i := range kvs {
		kvs[i].Key = r.u64()
		kvs[i].Version = r.u64()
	}
	return kvs
}

// Header is the common prefix of every message.
type Header struct {
	TxnID uint64
	Src   uint8
}

// GetTxnID returns the transaction id; runtimes use it for flow steering.
func (h Header) GetTxnID() uint64 { return h.TxnID }

func (h Header) marshal(w *writer, t Type) {
	w.u8(uint8(t))
	w.u64(h.TxnID)
	w.u8(h.Src)
}

// --- messages ---

// TxnRequest starts a transaction (host -> coordinator NIC over PCIe). The
// initial read and write sets, the registered execution function, and any
// external application state travel together (§4.2.2).
type TxnRequest struct {
	Header
	FnID      uint16 // registered execution function; 0 = none (host executes)
	ReadKeys  []uint64
	WriteSet  []KV // blind writes; for local transactions, the full computed write set
	WriteKeys []uint64
	ExecState []byte // external application state shipped to the NIC
	Flags     uint8  // feature bits (NIC execution, local fast path)
	// ExecWrites counts the leading WriteSet entries of a local transaction
	// whose values are rows its host execution built (txnmodel.Rows): the
	// coordinator gives them back if the attempt aborts before the log. It
	// sits in Flags' padding and is not encoded: the request never leaves
	// its node.
	ExecWrites uint16
	// LocalReadVers carries the read versions a local transaction observed
	// during optimistic host-side execution (§4.2.4); the NIC validates
	// them against its index before replicating.
	LocalReadVers []KeyVer
}

// TxnRequest flag bits.
const (
	FlagNICExec = 1 << 0 // execute on the coordinator NIC (user annotation, §4.3.3)
	FlagLocal   = 1 << 1 // host-executed local transaction (§4.2.4)
)

func (m *TxnRequest) Type() Type { return TTxnRequest }
func (m *TxnRequest) WireSize() int {
	return hdrSize + 2 + keysSize(m.ReadKeys) + kvSize(m.WriteSet) +
		keysSize(m.WriteKeys) + bytesSize(m.ExecState) + 1 + keyVerSize(m.LocalReadVers)
}
func (m *TxnRequest) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TTxnRequest)
	w.u16(m.FnID)
	w.keys(m.ReadKeys)
	w.kvs(m.WriteSet)
	w.keys(m.WriteKeys)
	w.bytes(m.ExecState)
	w.u8(m.Flags)
	w.keyVers(m.LocalReadVers)
	return w.b
}

// ReadReturn delivers read-set values to the host for host-side execution
// (NIC -> host, PCIe).
type ReadReturn struct {
	Header
	Items []KV
}

func (m *ReadReturn) Type() Type    { return TReadReturn }
func (m *ReadReturn) WireSize() int { return hdrSize + kvSize(m.Items) }
func (m *ReadReturn) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TReadReturn)
	w.kvs(m.Items)
	return w.b
}

// WriteSet resumes a transaction with host-computed writes (host -> NIC).
type WriteSet struct {
	Header
	Writes []KV
	// MoreReads requests another execution round (multi-shot, §4.2 step 3).
	MoreReads []uint64
	// Abort reports an application-level abort decided during host-side
	// execution; the NIC releases the transaction's locks.
	Abort bool
}

func (m *WriteSet) Type() Type { return TWriteSet }
func (m *WriteSet) WireSize() int {
	return hdrSize + kvSize(m.Writes) + keysSize(m.MoreReads) + 1
}
func (m *WriteSet) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TWriteSet)
	w.kvs(m.Writes)
	w.keys(m.MoreReads)
	if m.Abort {
		w.u8(1)
	} else {
		w.u8(0)
	}
	return w.b
}

// TxnDone reports the transaction outcome to the host (NIC -> host).
type TxnDone struct {
	Header
	Status Status
	// ReadSet carries the read values for NIC-executed transactions whose
	// application wants results.
	ReadSet []KV
}

func (m *TxnDone) Type() Type    { return TTxnDone }
func (m *TxnDone) WireSize() int { return hdrSize + 1 + kvSize(m.ReadSet) }
func (m *TxnDone) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TTxnDone)
	w.u8(uint8(m.Status))
	w.kvs(m.ReadSet)
	return w.b
}

// LogApplyAck tells the NIC which log records the host has applied so it can
// reclaim log space and unpin cache entries (§4.2 step 7). It rides on
// existing host->NIC traffic.
type LogApplyAck struct {
	Header
	Seq uint64 // log record sequence number that has been applied
}

func (m *LogApplyAck) Type() Type    { return TLogApplyAck }
func (m *LogApplyAck) WireSize() int { return hdrSize + 8 }
func (m *LogApplyAck) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TLogApplyAck)
	w.u64(m.Seq)
	return w.b
}

// Execute asks a primary to read the read-set keys and lock (and read) the
// write-set keys in one operation — Xenic's combined remote op (§4.2 step
// 2); the baselines send narrower versions of the same message. LockOnly
// marks DrTM+H's lock RPCs, whose values were already fetched by one-sided
// READs: the response omits them.
type Execute struct {
	Header
	ReadKeys []uint64
	LockKeys []uint64
	LockOnly bool
	// LockVers carries the versions observed by the preceding one-sided
	// READs; a LockOnly request fails if a key's version moved (DrTM+H's
	// lock-and-verify).
	LockVers []KeyVer
}

func (m *Execute) Type() Type { return TExecute }
func (m *Execute) WireSize() int {
	return hdrSize + keysSize(m.ReadKeys) + keysSize(m.LockKeys) + 1 + keyVerSize(m.LockVers)
}
func (m *Execute) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TExecute)
	w.keys(m.ReadKeys)
	w.keys(m.LockKeys)
	if m.LockOnly {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.keyVers(m.LockVers)
	return w.b
}

// ExecuteResp returns read values and versions, or an abort status. Locked
// echoes the keys this operation locked so the coordinator can track its
// lock set precisely across concurrent per-shard operations.
type ExecuteResp struct {
	Header
	Status Status
	Items  []KV
	Locked []uint64
}

func (m *ExecuteResp) Type() Type { return TExecuteResp }
func (m *ExecuteResp) WireSize() int {
	return hdrSize + 1 + kvSize(m.Items) + keysSize(m.Locked)
}
func (m *ExecuteResp) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TExecuteResp)
	w.u8(uint8(m.Status))
	w.kvs(m.Items)
	w.keys(m.Locked)
	return w.b
}

// Validate checks that read-set versions are unchanged and unlocked.
type Validate struct {
	Header
	Items []KeyVer
}

func (m *Validate) Type() Type    { return TValidate }
func (m *Validate) WireSize() int { return hdrSize + keyVerSize(m.Items) }
func (m *Validate) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TValidate)
	w.keyVers(m.Items)
	return w.b
}

// ValidateResp reports the validation outcome.
type ValidateResp struct {
	Header
	Status Status
}

func (m *ValidateResp) Type() Type    { return TValidateResp }
func (m *ValidateResp) WireSize() int { return hdrSize + 1 }
func (m *ValidateResp) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TValidateResp)
	w.u8(uint8(m.Status))
	return w.b
}

// Log replicates a write-set record to a backup. RespondTo names the node
// whose NIC should receive the LogResp — the coordinator in the standard
// pattern, but multi-hop commits direct backup acks straight to the
// coordinator NIC after remote-primary execution (§4.2.3, Figure 7b).
type Log struct {
	Header
	RespondTo uint8
	Writes    []KV
}

func (m *Log) Type() Type    { return TLog }
func (m *Log) WireSize() int { return hdrSize + 1 + kvSize(m.Writes) }
func (m *Log) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TLog)
	w.u8(m.RespondTo)
	w.kvs(m.Writes)
	return w.b
}

// LogResp acknowledges a durable log append.
type LogResp struct {
	Header
	Status Status
}

func (m *LogResp) Type() Type    { return TLogResp }
func (m *LogResp) WireSize() int { return hdrSize + 1 }
func (m *LogResp) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TLogResp)
	w.u8(uint8(m.Status))
	return w.b
}

// Commit applies the write set at a primary, bumps versions, and unlocks.
// CTS is the transaction's commit timestamp under MVCC (0 when MVCC is off);
// it is a trailing optional field so MVCC-off encodings are unchanged.
type Commit struct {
	Header
	Writes []KV
	CTS    uint64
}

func (m *Commit) Type() Type { return TCommit }
func (m *Commit) WireSize() int {
	n := hdrSize + kvSize(m.Writes)
	if m.CTS != 0 {
		n += 8
	}
	return n
}
func (m *Commit) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TCommit)
	w.kvs(m.Writes)
	if m.CTS != 0 {
		w.u64(m.CTS)
	}
	return w.b
}

// CommitResp acknowledges a commit apply.
type CommitResp struct {
	Header
	Status Status
}

func (m *CommitResp) Type() Type    { return TCommitResp }
func (m *CommitResp) WireSize() int { return hdrSize + 1 }
func (m *CommitResp) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TCommitResp)
	w.u8(uint8(m.Status))
	return w.b
}

// Abort releases locks held by an aborting transaction at a primary.
type Abort struct {
	Header
	LockedKeys []uint64
}

func (m *Abort) Type() Type    { return TAbort }
func (m *Abort) WireSize() int { return hdrSize + keysSize(m.LockedKeys) }
func (m *Abort) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TAbort)
	w.keys(m.LockedKeys)
	return w.b
}

// ShipExec ships a whole single-round transaction to a remote primary NIC
// for execution there (§4.2.3): the remote NIC executes, logs to backups,
// and commits locally; backups ack to the coordinator.
type ShipExec struct {
	Header
	FnID      uint16
	Coord     uint8 // coordinator node: receives backup acks and the result
	ReadKeys  []uint64
	WriteKeys []uint64
	WriteSet  []KV // blind writes with known values
	ExecState []byte
	// LocalReads are the values (and versions) of the coordinator-shard
	// keys, read and locked at the coordinator NIC before shipping; the
	// remote primary's execution consumes them (§4.2.3).
	LocalReads []KV
}

func (m *ShipExec) Type() Type { return TShipExec }
func (m *ShipExec) WireSize() int {
	return hdrSize + 2 + 1 + keysSize(m.ReadKeys) + keysSize(m.WriteKeys) +
		kvSize(m.WriteSet) + bytesSize(m.ExecState) + kvSize(m.LocalReads)
}
func (m *ShipExec) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TShipExec)
	w.u16(m.FnID)
	w.u8(m.Coord)
	w.keys(m.ReadKeys)
	w.keys(m.WriteKeys)
	w.kvs(m.WriteSet)
	w.bytes(m.ExecState)
	w.kvs(m.LocalReads)
	return w.b
}

// ShipResult returns a shipped transaction's outcome (and read set, for the
// application) from the remote primary to the coordinator NIC.
type ShipResult struct {
	Header
	Status  Status
	NumLogs uint8 // backup acks the coordinator must additionally collect
	ReadSet []KV
	// Writes is the full committed write set with new versions; the
	// coordinator applies its local-shard part and sends the rest back in
	// the Commit to the remote primary.
	Writes []KV
}

func (m *ShipResult) Type() Type { return TShipResult }
func (m *ShipResult) WireSize() int {
	return hdrSize + 2 + kvSize(m.ReadSet) + kvSize(m.Writes)
}
func (m *ShipResult) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TShipResult)
	w.u8(uint8(m.Status))
	w.u8(m.NumLogs)
	w.kvs(m.ReadSet)
	w.kvs(m.Writes)
	return w.b
}

// LogCommit tells a backup that a logged record reached its commit point,
// making it safe to apply to the backup replica (FaRM applies backup
// records only once the transaction's outcome is decided; recovery relies
// on undecided records staying unapplied).
// CTS carries the commit timestamp under MVCC (0 when off) so the backup
// can stamp its log record and keep version chains on its replica; it is a
// trailing optional field so MVCC-off encodings are unchanged.
type LogCommit struct {
	Header
	Shard uint8
	CTS   uint64
}

func (m *LogCommit) Type() Type { return TLogCommit }
func (m *LogCommit) WireSize() int {
	n := hdrSize + 1
	if m.CTS != 0 {
		n += 8
	}
	return n
}
func (m *LogCommit) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TLogCommit)
	w.u8(m.Shard)
	if m.CTS != 0 {
		w.u64(m.CTS)
	}
	return w.b
}

// RecoveryQuery asks a replica whether it holds a log record for the
// transaction on the given shard (§4.2.1: recovering transactions are
// committed iff every surviving replica logged them). Round distinguishes
// re-votes: when a second view change lands while a recovery is still
// collecting responses, the recovering primary re-queries the new replica
// set with a higher round and ignores stale-round answers.
type RecoveryQuery struct {
	Header
	Shard uint8
	Round uint8
}

func (m *RecoveryQuery) Type() Type    { return TRecoveryQuery }
func (m *RecoveryQuery) WireSize() int { return hdrSize + 2 }
func (m *RecoveryQuery) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TRecoveryQuery)
	w.u8(m.Shard)
	w.u8(m.Round)
	return w.b
}

// RecoveryResp answers a RecoveryQuery, carrying the record's writes when
// present so the recovering primary can apply them.
type RecoveryResp struct {
	Header
	Shard  uint8
	Round  uint8
	Has    bool
	Writes []KV
}

func (m *RecoveryResp) Type() Type { return TRecoveryResp }
func (m *RecoveryResp) WireSize() int {
	return hdrSize + 3 + kvSize(m.Writes)
}
func (m *RecoveryResp) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TRecoveryResp)
	w.u8(m.Shard)
	w.u8(m.Round)
	if m.Has {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.kvs(m.Writes)
	return w.b
}

// RecoveryDecide broadcasts a recovering transaction's fate to the shard's
// surviving replicas: commit (apply the record) or drop it.
type RecoveryDecide struct {
	Header
	Shard  uint8
	Commit bool
	// CTS is the MVCC timestamp a commit decision installs at (the
	// coordinator's original assignment when it survives, else a fresh
	// one); 0 (omitted from the frame) under MVCC-off or for aborts.
	CTS uint64
}

func (m *RecoveryDecide) Type() Type { return TRecoveryDecide }
func (m *RecoveryDecide) WireSize() int {
	n := hdrSize + 2
	if m.CTS != 0 {
		n += 8
	}
	return n
}
func (m *RecoveryDecide) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TRecoveryDecide)
	w.u8(m.Shard)
	if m.Commit {
		w.u8(1)
	} else {
		w.u8(0)
	}
	if m.CTS != 0 {
		w.u64(m.CTS)
	}
	return w.b
}

// StatePull asks the current primary of a shard for snapshot chunk Index of
// its sorted key range (rejoiner -> primary; TxnID 0). Index 0 opens a
// transfer session: the primary snapshots the shard's key set and starts
// forwarding every commit it applies from then on, so the union of chunks
// and forwards is complete — no cutover gap.
type StatePull struct {
	Header
	Shard uint8
	Index uint32
}

func (m *StatePull) Type() Type    { return TStatePull }
func (m *StatePull) WireSize() int { return hdrSize + 5 }
func (m *StatePull) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TStatePull)
	w.u8(m.Shard)
	w.u16(uint16(m.Index >> 16))
	w.u16(uint16(m.Index))
	return w.b
}

// StateChunk returns one snapshot chunk; Done marks the last one. Under
// MVCC, TSs carries each KV's head commit timestamp (parallel to KVs) so a
// later-promoted rejoiner serves correct snapshot visibility; it is a
// trailing optional field so MVCC-off encodings are unchanged.
type StateChunk struct {
	Header
	Shard uint8
	Index uint32
	Done  bool
	KVs   []KV
	TSs   []uint64
}

func (m *StateChunk) Type() Type { return TStateChunk }
func (m *StateChunk) WireSize() int {
	n := hdrSize + 6 + kvSize(m.KVs)
	if len(m.TSs) > 0 {
		n += keysSize(m.TSs)
	}
	return n
}
func (m *StateChunk) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TStateChunk)
	w.u8(m.Shard)
	w.u16(uint16(m.Index >> 16))
	w.u16(uint16(m.Index))
	if m.Done {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.kvs(m.KVs)
	if len(m.TSs) > 0 {
		w.keys(m.TSs)
	}
	return w.b
}

// StateForward relays a commit the primary applied while a rejoiner was
// still catching up (the cutover stream of the state transfer).
type StateForward struct {
	Header
	Shard  uint8
	Writes []KV
	// CTS is the forwarded commit's MVCC timestamp; 0 (omitted from the
	// frame) under MVCC-off.
	CTS uint64
}

func (m *StateForward) Type() Type { return TStateForward }
func (m *StateForward) WireSize() int {
	n := hdrSize + 1 + kvSize(m.Writes)
	if m.CTS != 0 {
		n += 8
	}
	return n
}
func (m *StateForward) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TStateForward)
	w.u8(m.Shard)
	w.kvs(m.Writes)
	if m.CTS != 0 {
		w.u64(m.CTS)
	}
	return w.b
}

// SnapshotRead asks a primary for the versions of Keys visible at snapshot
// timestamp TS (the MVCC read-only fast path): no locks are taken and
// nothing is validated — the primary resolves each key against its NIC
// index version chain and, on a chain miss, a DMA row-header walk of the
// host store.
type SnapshotRead struct {
	Header
	Shard uint8
	TS    uint64
	Keys  []uint64
}

func (m *SnapshotRead) Type() Type    { return TSnapshotRead }
func (m *SnapshotRead) WireSize() int { return hdrSize + 1 + 8 + keysSize(m.Keys) }
func (m *SnapshotRead) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TSnapshotRead)
	w.u8(m.Shard)
	w.u64(m.TS)
	w.keys(m.Keys)
	return w.b
}

// SnapshotResp returns the version of every requested key visible at the
// snapshot timestamp (Version 0 = key absent at TS). StatusAbortSnapshot
// means at least one key's chain was GC'd past TS and the coordinator must
// retry at a fresher snapshot.
type SnapshotResp struct {
	Header
	Shard  uint8
	Status Status
	Items  []KV
}

func (m *SnapshotResp) Type() Type    { return TSnapshotResp }
func (m *SnapshotResp) WireSize() int { return hdrSize + 2 + kvSize(m.Items) }
func (m *SnapshotResp) Marshal(b []byte) []byte {
	w := &writer{b}
	m.Header.marshal(w, TSnapshotResp)
	w.u8(m.Shard)
	w.u8(uint8(m.Status))
	w.kvs(m.Items)
	return w.b
}

// Unmarshal decodes one message from b.
func Unmarshal(b []byte) (Msg, error) {
	r := &reader{b: b}
	t := Type(r.u8())
	h := Header{TxnID: r.u64(), Src: r.u8()}
	var m Msg
	switch t {
	case TTxnRequest:
		m = &TxnRequest{Header: h, FnID: r.u16(), ReadKeys: r.keys(),
			WriteSet: r.kvs(), WriteKeys: r.keys(), ExecState: r.bytes(),
			Flags: r.u8(), LocalReadVers: r.keyVers()}
	case TReadReturn:
		m = &ReadReturn{Header: h, Items: r.kvs()}
	case TWriteSet:
		m = &WriteSet{Header: h, Writes: r.kvs(), MoreReads: r.keys(), Abort: r.u8() != 0}
	case TTxnDone:
		m = &TxnDone{Header: h, Status: Status(r.u8()), ReadSet: r.kvs()}
	case TLogApplyAck:
		m = &LogApplyAck{Header: h, Seq: r.u64()}
	case TExecute:
		m = &Execute{Header: h, ReadKeys: r.keys(), LockKeys: r.keys(),
			LockOnly: r.u8() != 0, LockVers: r.keyVers()}
	case TExecuteResp:
		m = &ExecuteResp{Header: h, Status: Status(r.u8()), Items: r.kvs(), Locked: r.keys()}
	case TValidate:
		m = &Validate{Header: h, Items: r.keyVers()}
	case TValidateResp:
		m = &ValidateResp{Header: h, Status: Status(r.u8())}
	case TLog:
		m = &Log{Header: h, RespondTo: r.u8(), Writes: r.kvs()}
	case TLogResp:
		m = &LogResp{Header: h, Status: Status(r.u8())}
	case TCommit:
		c := &Commit{Header: h, Writes: r.kvs()}
		if r.err == nil && r.off < len(b) {
			c.CTS = r.u64()
		}
		m = c
	case TCommitResp:
		m = &CommitResp{Header: h, Status: Status(r.u8())}
	case TAbort:
		m = &Abort{Header: h, LockedKeys: r.keys()}
	case TShipExec:
		m = &ShipExec{Header: h, FnID: r.u16(), Coord: r.u8(), ReadKeys: r.keys(),
			WriteKeys: r.keys(), WriteSet: r.kvs(), ExecState: r.bytes(),
			LocalReads: r.kvs()}
	case TShipResult:
		m = &ShipResult{Header: h, Status: Status(r.u8()), NumLogs: r.u8(),
			ReadSet: r.kvs(), Writes: r.kvs()}
	case TLogCommit:
		lc := &LogCommit{Header: h, Shard: r.u8()}
		if r.err == nil && r.off < len(b) {
			lc.CTS = r.u64()
		}
		m = lc
	case TRecoveryQuery:
		m = &RecoveryQuery{Header: h, Shard: r.u8(), Round: r.u8()}
	case TRecoveryResp:
		m = &RecoveryResp{Header: h, Shard: r.u8(), Round: r.u8(), Has: r.u8() != 0, Writes: r.kvs()}
	case TRecoveryDecide:
		rd := &RecoveryDecide{Header: h, Shard: r.u8(), Commit: r.u8() != 0}
		if r.err == nil && r.off < len(b) {
			rd.CTS = r.u64()
		}
		m = rd
	case TStatePull:
		m = &StatePull{Header: h, Shard: r.u8(),
			Index: uint32(r.u16())<<16 | uint32(r.u16())}
	case TStateChunk:
		sc := &StateChunk{Header: h, Shard: r.u8(),
			Index: uint32(r.u16())<<16 | uint32(r.u16()),
			Done:  r.u8() != 0, KVs: r.kvs()}
		if r.err == nil && r.off < len(b) {
			sc.TSs = r.keys()
		}
		m = sc
	case TStateForward:
		sf := &StateForward{Header: h, Shard: r.u8(), Writes: r.kvs()}
		if r.err == nil && r.off < len(b) {
			sf.CTS = r.u64()
		}
		m = sf
	case TSnapshotRead:
		m = &SnapshotRead{Header: h, Shard: r.u8(), TS: r.u64(), Keys: r.keys()}
	case TSnapshotResp:
		m = &SnapshotResp{Header: h, Shard: r.u8(), Status: Status(r.u8()), Items: r.kvs()}
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", t)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(b)-r.off, t)
	}
	return m, nil
}
