// Package core implements the paper's primary contribution: the security
// analysis of Fabric's private data collections. It provides
//
//   - the defense features of §IV-C as configuration that threads through
//     the endorser, validator and client (Feature 1: collection-level
//     policy check for PDC read transactions during validation; Feature 2:
//     the cryptographic hashed-payload endorsement of Fig. 4; plus the
//     supplemental non-member endorsement filter of §V-D);
//
//   - misuse detection for the three use-case classes of §III, as
//     predicates over chaincode definitions and transactions; and
//
//   - the attack/defense evaluation matrix machinery behind Table II.
package core

// SecurityConfig selects which of the paper's new Fabric features are
// active. The zero value is the original (vulnerable) Fabric behaviour.
type SecurityConfig struct {
	// CollectionPolicyForReads enables defense Feature 1 (§IV-C1):
	// during validation, PDC read-only transactions are checked against
	// the collection-level endorsement policy when one is defined,
	// instead of always using the chaincode-level policy.
	CollectionPolicyForReads bool

	// HashedPayloadEndorsement enables defense Feature 2 (§IV-C2,
	// Fig. 4): endorsers sign the proposal-response with a hashed
	// "payload" (PR_Hash) while still returning the original (PR_Ori)
	// to the client; the client verifies the signature and assembles
	// the transaction from PR_Hash, so private values never enter a
	// block.
	HashedPayloadEndorsement bool

	// FilterNonMemberEndorsements enables the supplemental feature of
	// §V-D: during validation, endorsements from peers whose
	// organization is not a member of a collection the transaction
	// touches are discarded before the endorsement policy is evaluated.
	FilterNonMemberEndorsements bool

	// ValidationWorkers bounds the worker pool of the parallel block
	// validation pipeline (docs/VALIDATION.md): the per-transaction
	// certificate/signature checks and state-independent endorsement-
	// policy evaluation fan out across this many goroutines, while the
	// key-level routing, MVCC check and commit stay sequential in block
	// order. 0 selects runtime.GOMAXPROCS(0); 1 forces the fully
	// sequential path. Validation outcomes are identical for every
	// value (see TestPipelineDeterminism).
	ValidationWorkers int

	// ReconcileMaxAttempts bounds the anti-entropy reconciler's attempts
	// per missing (txID, collection) entry before it gives up
	// (internal/reconcile). 0 selects reconcile.DefaultMaxAttempts.
	ReconcileMaxAttempts int

	// ReconcileBaseBackoff is the reconciler's retry delay in ticks after
	// the first failed attempt; it doubles per failure up to
	// ReconcileMaxBackoff. 0 selects reconcile.DefaultBaseBackoff.
	ReconcileBaseBackoff int

	// ReconcileMaxBackoff caps the reconciler's exponential backoff, in
	// ticks. 0 selects reconcile.DefaultMaxBackoff.
	ReconcileMaxBackoff int

	// TransientTTLBlocks evicts transient-store entries that are older
	// than this many blocks at commit time, bounding how long private
	// sets of never-committed transactions linger. 0 disables the TTL.
	TransientTTLBlocks uint64

	// TransientMaxEntries bounds the number of transactions held in the
	// transient store; the oldest entries are evicted first. 0 means
	// unbounded.
	TransientMaxEntries int

	// StorageBackend selects each peer's storage backend by registered
	// name ("memory", "durable", "null"; see internal/storage and
	// docs/STORAGE.md). Empty means no persistence layer at all — the
	// peer keeps its chain and world state purely in memory, the
	// original behaviour.
	StorageBackend string

	// StorageDir is the root directory for durable backends; each peer
	// stores under StorageDir/<peer name>. Required when StorageBackend
	// is "durable"; ignored by backends that keep nothing on disk.
	StorageDir string

	// StorageSegmentBytes caps the durable backend's active log segment
	// before it is sealed and compaction becomes possible. 0 selects the
	// backend default (4 MiB).
	StorageSegmentBytes int64

	// StorageNoFsync makes the durable backend skip fsync on appends:
	// process-crash durability only, for benchmarks isolating write-path
	// cost from disk sync cost. Never enable it for data that must
	// survive power loss.
	StorageNoFsync bool

	// DedupCacheSize caps the validator's sharded duplicate-TxID cache
	// (internal/dedup), which rejects replayed submissions before
	// endorsement-signature verification without taking the block
	// store's global lock. 0 selects dedup.DefaultCapacity; negative
	// disables the cache (every replay check goes to the block store).
	DedupCacheSize int

	// GatewayAdmissionRate is the per-gateway token-bucket refill rate in
	// transactions per second; submissions beyond it are shed with
	// gateway.ErrOverloaded before endorsement fan-out. 0 disables
	// admission control (every submission is admitted).
	GatewayAdmissionRate float64

	// GatewayAdmissionBurst is the token bucket's capacity — how many
	// submissions may arrive back-to-back before pacing kicks in. 0
	// selects max(1, round(GatewayAdmissionRate)). Ignored when
	// GatewayAdmissionRate is 0.
	GatewayAdmissionBurst int
}

// OriginalFabric is the unmodified framework configuration.
func OriginalFabric() SecurityConfig { return SecurityConfig{} }

// DefendedFabric enables every defense feature.
func DefendedFabric() SecurityConfig {
	return SecurityConfig{
		CollectionPolicyForReads:    true,
		HashedPayloadEndorsement:    true,
		FilterNonMemberEndorsements: true,
	}
}

// Feature1Only enables only the collection-level read policy check.
func Feature1Only() SecurityConfig {
	return SecurityConfig{CollectionPolicyForReads: true}
}

// Feature2Only enables only the cryptographic payload solution.
func Feature2Only() SecurityConfig {
	return SecurityConfig{HashedPayloadEndorsement: true}
}
