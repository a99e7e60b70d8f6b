// Package validator implements the validation phase of the three-phase
// workflow (paper §II-B3): the proof-of-policy (PoP) consensus checks —
// endorsement policy check and version-conflict (MVCC) check — followed
// by commit of valid transactions to the world state and blockchain.
//
// The policy-routing logic reproduced here is the crux of the paper's
// Use Case 2: read-only transactions are always validated against the
// chaincode-level endorsement policy, and write-related transactions use
// a collection-level policy only when one is defined. Defense Feature 1
// (§IV-C1) changes the read-only routing; the supplemental filter of
// §V-D discards endorsements from collection non-members.
package validator

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/chaincode"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/fabcrypto"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/pvtdata"
	"repro/internal/rwset"
	"repro/internal/statedb"
	"repro/internal/storage"
)

// Validator is the committing engine of one peer.
type Validator struct {
	selfName   string
	selfOrg    string
	channelCfg *channel.Config
	verifier   *identity.Verifier
	vcache     *identity.VerifyCache
	dedupe     *dedup.Cache // nil when disabled
	defs       func(name string) *chaincode.Definition
	db         *statedb.DB
	pvt        *pvtdata.Store
	transient  *pvtdata.TransientStore
	gossip     *gossip.Network
	blocks     *ledger.BlockStore
	sec        core.SecurityConfig
	counters   *metrics.Counters // optional
	timings    *metrics.Timings  // optional

	// missing records private data the peer could not obtain at commit
	// time (tx ID -> collection names), mirroring Fabric's missing
	// private data bookkeeping. missingMu guards it: the commit path
	// appends while the reconciler may read and clear from another
	// goroutine.
	missingMu sync.Mutex
	missing   map[string][]string

	// durable, when set, mirrors the missing records to the peer's
	// durable PvtStore so reconciliation work survives a restart.
	// Failures go sticky in durableErr, surfaced via DurableErr.
	durable    storage.PvtStore
	durableErr error
}

// Config wires a Validator.
type Config struct {
	SelfName  string
	SelfOrg   string
	Channel   *channel.Config
	Verifier  *identity.Verifier
	Defs      func(name string) *chaincode.Definition
	DB        *statedb.DB
	Pvt       *pvtdata.Store
	Transient *pvtdata.TransientStore
	Gossip    *gossip.Network
	Blocks    *ledger.BlockStore
	Security  core.SecurityConfig
	// Metrics, when non-nil, receives verification-cache hit/miss
	// counters.
	Metrics *metrics.Counters
	// Timings, when non-nil, receives the per-phase validation latency
	// histograms (metrics.ValidateVerify/Policy/MVCC/Commit).
	Timings *metrics.Timings
	// Durable, when non-nil, receives missing-private-data records so the
	// reconciler's work queue survives a restart (docs/STORAGE.md §7).
	Durable storage.PvtStore
}

// New creates a validator.
func New(cfg Config) *Validator {
	var dd *dedup.Cache
	if cfg.Security.DedupCacheSize >= 0 {
		dd = dedup.New(cfg.Security.DedupCacheSize)
	}
	return &Validator{
		selfName:   cfg.SelfName,
		selfOrg:    cfg.SelfOrg,
		channelCfg: cfg.Channel,
		verifier:   cfg.Verifier,
		vcache:     identity.NewVerifyCache(cfg.Verifier, identity.DefaultVerifyCacheSize, cfg.Metrics),
		dedupe:     dd,
		defs:       cfg.Defs,
		db:         cfg.DB,
		pvt:        cfg.Pvt,
		transient:  cfg.Transient,
		gossip:     cfg.Gossip,
		blocks:     cfg.Blocks,
		sec:        cfg.Security,
		counters:   cfg.Metrics,
		timings:    cfg.Timings,
		durable:    cfg.Durable,
		missing:    make(map[string][]string),
	}
}

// DurableErr returns the first failure writing a missing-private-data
// record to the durable store, if any. The peer checks it before
// declaring a block durable, so a lost record forces replay.
func (v *Validator) DurableErr() error {
	v.missingMu.Lock()
	defer v.missingMu.Unlock()
	return v.durableErr
}

// RestoreMissing reloads the missing-private-data records from the
// durable store on recovery, before block replay re-records (and
// dedupes against) whatever the replayed blocks still miss.
func (v *Validator) RestoreMissing() error {
	if v.durable == nil {
		return nil
	}
	return v.durable.LoadMissing(func(e storage.MissingEntry) error {
		v.missingMu.Lock()
		v.addMissingLocked(e.TxID, e.Collection)
		v.missingMu.Unlock()
		return nil
	})
}

// addMissingLocked records a missing (txID, collection) pair, deduped —
// recovery replay revisits blocks whose records were already restored.
// Caller holds missingMu.
func (v *Validator) addMissingLocked(txID, collection string) bool {
	for _, c := range v.missing[txID] {
		if c == collection {
			return false
		}
	}
	v.missing[txID] = append(v.missing[txID], collection)
	return true
}

// recordMissing registers a missing entry in memory and, when a durable
// store is attached, on disk. Duplicate records are no-ops end to end.
func (v *Validator) recordMissing(txID, collection string) {
	v.missingMu.Lock()
	fresh := v.addMissingLocked(txID, collection)
	v.missingMu.Unlock()
	if !fresh || v.durable == nil {
		return
	}
	if err := v.durable.RecordMissing(storage.MissingEntry{TxID: txID, Collection: collection}); err != nil {
		v.missingMu.Lock()
		if v.durableErr == nil {
			v.durableErr = err
		}
		v.missingMu.Unlock()
	}
}

// DedupStats returns the duplicate-TxID cache's counters (hits are
// replays rejected before signature verification). The zero Stats is
// returned when the cache is disabled.
func (v *Validator) DedupStats() dedup.Stats {
	if v.dedupe == nil {
		return dedup.Stats{}
	}
	return v.dedupe.Stats()
}

// FlushVerifyCache drops every memoized endorsement verification.
// Benchmarks use it to measure the uncached path; operators never need
// it (CA rotation invalidates entries by generation).
func (v *Validator) FlushVerifyCache() { v.vcache.Flush() }

// SetSecurity swaps the active security configuration.
func (v *Validator) SetSecurity(sec core.SecurityConfig) { v.sec = sec }

// MissingPrivateData returns the collections for which the peer is a
// member but never obtained the original private data of a transaction.
func (v *Validator) MissingPrivateData(txID string) []string {
	v.missingMu.Lock()
	defer v.missingMu.Unlock()
	return append([]string(nil), v.missing[txID]...)
}

// MissingEntry identifies one (transaction, collection) pair of missing
// private data; the reconciler's unit of work.
type MissingEntry struct {
	TxID       string
	Collection string
}

// Missing returns every recorded missing-private-data entry, sorted by
// (txID, collection). The reconciler syncs its retry queue against this
// on every tick.
func (v *Validator) Missing() []MissingEntry {
	v.missingMu.Lock()
	defer v.missingMu.Unlock()
	var out []MissingEntry
	for txID, colls := range v.missing {
		for _, c := range colls {
			out = append(out, MissingEntry{TxID: txID, Collection: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TxID != out[j].TxID {
			return out[i].TxID < out[j].TxID
		}
		return out[i].Collection < out[j].Collection
	})
	return out
}

// SeedMissing installs missing-private-data records transferred in a
// snapshot, deduped against anything already recorded and mirrored to
// the durable store. The installed peer's reconciler then retries the
// exporter's unresolved fetches as if it had recorded them itself.
func (v *Validator) SeedMissing(entries []MissingEntry) error {
	for _, e := range entries {
		v.recordMissing(e.TxID, e.Collection)
	}
	return v.DurableErr()
}

// ReconcileOne performs one reconciliation attempt for a recorded
// missing entry: it pulls the original set from other member peers via
// gossip, verifies it against the in-block hashes and commits the
// recovered values at the hashed store's current versions — but only
// when the hashed store still reflects those writes (a later overwrite
// makes the old values stale, in which case the entry stays recorded
// until the newer transaction's reconciliation covers it). On success
// the entry is cleared and true is returned.
func (v *Validator) ReconcileOne(txID, collection string) bool {
	v.missingMu.Lock()
	recorded := false
	for _, c := range v.missing[txID] {
		if c == collection {
			recorded = true
			break
		}
	}
	v.missingMu.Unlock()
	if !recorded {
		return false
	}
	tx, code, err := v.blocks.Transaction(txID)
	if err != nil || code != ledger.Valid {
		return false
	}
	prp, err := tx.ResponsePayloadParsed()
	if err != nil {
		return false
	}
	set, err := prp.RWSet()
	if err != nil {
		return false
	}
	def := v.defs(prp.Chaincode)
	if def == nil {
		return false
	}
	if !v.reconcileOne(txID, def, set, collection) {
		return false
	}
	v.missingMu.Lock()
	remaining := v.missing[txID][:0]
	for _, c := range v.missing[txID] {
		if c != collection {
			remaining = append(remaining, c)
		}
	}
	if len(remaining) == 0 {
		delete(v.missing, txID)
	} else {
		v.missing[txID] = remaining
	}
	v.missingMu.Unlock()
	if v.durable != nil {
		if err := v.durable.ResolveMissing(storage.MissingEntry{TxID: txID, Collection: collection}); err != nil {
			v.missingMu.Lock()
			if v.durableErr == nil {
				v.durableErr = err
			}
			v.missingMu.Unlock()
		}
	}
	return true
}

func (v *Validator) reconcileOne(
	txID string,
	def *chaincode.Definition,
	set *rwset.TxRWSet,
	collName string,
) bool {
	cfg := def.Collection(collName)
	if cfg == nil {
		return false
	}
	var hashed *rwset.CollHashedRWSet
	for i := range set.CollSets {
		if set.CollSets[i].Collection == collName {
			hashed = &set.CollSets[i]
			break
		}
	}
	if hashed == nil {
		return false
	}
	orig := v.gossip.Reconcile(v.selfName, cfg, txID)
	if orig == nil || !rwset.MatchesHashed(orig, hashed) {
		return false
	}
	for _, w := range orig.Writes {
		if w.IsDelete {
			continue
		}
		// Apply only when the hashed store still holds this exact
		// value — otherwise a newer write superseded it.
		current, ver, ok := v.pvt.GetPrivateHash(def.Name, collName, w.Key)
		if !ok || !fabcrypto.Equal(current, fabcrypto.Hash(w.Value)) {
			continue
		}
		v.pvt.ApplyPrivateWrite(def.Name, collName, w.Key, w.Value, ver)
	}
	return true
}

// ReplayBlock re-applies an already-validated block during restart
// recovery: the validation flags recorded in the block metadata are
// trusted (they were computed by this peer before the block was made
// durable), so only the commit path runs.
func (v *Validator) ReplayBlock(block *ledger.Block) error {
	for i, tx := range block.Transactions {
		// Every appended ID — valid or not — is a future duplicate, so
		// the cache mirrors the full block like ValidateAndCommit does.
		if v.dedupe != nil {
			v.dedupe.Add(tx.TxID)
		}
		if block.Metadata.ValidationFlags[i] == ledger.Valid {
			v.commitTx(block.Header.Number, tx)
		}
	}
	if err := v.blocks.Append(block); err != nil {
		return fmt.Errorf("validator %s: replay: %w", v.selfName, err)
	}
	v.pvt.PurgeUpTo(block.Header.Number)
	return nil
}

// ValidateTx runs the two PoP checks on one transaction and returns its
// validation code. It performs no commit. Replayed transactions (an ID
// already on the chain) are rejected outright, as in Fabric — without
// this, a captured valid read-only transaction could be resubmitted
// forever, since the version-conflict check alone would keep passing.
//
// The check is split in two halves so that ValidateAndCommit can fan the
// first out across workers: preValidate covers everything that depends
// only on the transaction bytes and channel configuration, and
// finishValidate covers everything that must observe the world state as
// left by the preceding transactions of the block.
func (v *Validator) ValidateTx(tx *ledger.Transaction) ledger.ValidationCode {
	return v.finishValidate(v.preValidate(tx))
}

// txPrecheck carries the state-independent validation results of one
// transaction out of the parallel phase.
type txPrecheck struct {
	tx   *ledger.Transaction
	code ledger.ValidationCode // Valid when every precheck passed
	prp  *ledger.ProposalResponsePayload
	set  *rwset.TxRWSet
	def  *chaincode.Definition

	// signers are the endorser certificates whose signatures verified
	// (after the non-member filter, when enabled).
	signers []*identity.Certificate
	// collCount is the number of applicable collection-level policies;
	// collOK reports whether the signers satisfied every one of them.
	collCount int
	collOK    bool
	// ccOK reports whether the signers satisfied the chaincode-level
	// policy (pre-evaluated unconditionally; consulted only when the
	// routing of finishValidate requires it).
	ccOK bool

	// policyDur accumulates the parallel share of policy-evaluation
	// time; finishValidate adds the key-level routing share before
	// observing the total.
	policyDur time.Duration
}

// preValidate runs every check that does not depend on the world state:
// the replay check (the block store does not change while a block
// validates), payload parsing, certificate and signature verification,
// and evaluation of the state-independent endorsement policies
// (collection-level and chaincode-level). Safe to call concurrently for
// different transactions.
func (v *Validator) preValidate(tx *ledger.Transaction) *txPrecheck {
	pre := &txPrecheck{tx: tx, code: ledger.Valid}
	// Replay check, two tiers: the sharded dedup cache answers the hot
	// case (a replayed ID recently committed) from a striped bucket with
	// no global lock; only a cache miss pays the block store's
	// read-locked index lookup, which stays authoritative because the
	// cache is bounded and may have evicted the ID.
	if v.dedupe != nil && v.dedupe.Seen(tx.TxID) {
		pre.code = ledger.DuplicateTxID
		return pre
	}
	if _, _, err := v.blocks.Transaction(tx.TxID); err == nil {
		pre.code = ledger.DuplicateTxID
		return pre
	}
	prp, err := tx.ResponsePayloadParsed()
	if err != nil {
		pre.code = ledger.BadPayload
		return pre
	}
	set, err := prp.RWSet()
	if err != nil {
		pre.code = ledger.BadPayload
		return pre
	}
	def := v.defs(prp.Chaincode)
	if def == nil {
		pre.code = ledger.BadPayload
		return pre
	}
	pre.prp, pre.set, pre.def = prp, set, def

	verifyStart := time.Now()
	signers, code := v.verifiedEndorsers(tx, def, set)
	v.observe(metrics.ValidateVerify, verifyStart)
	if code != ledger.Valid {
		pre.code = code
		return pre
	}
	pre.signers = signers

	policyStart := time.Now()
	collPols := v.applicableCollectionPolicies(def, set)
	pre.collCount = len(collPols)
	pre.collOK = true
	for _, pol := range collPols {
		if !pol.Evaluate(signers) {
			pre.collOK = false
			break
		}
	}
	pre.ccOK = v.chaincodePolicySatisfied(def, signers)
	pre.policyDur = time.Since(policyStart)
	return pre
}

// finishValidate completes validation over the current world state: the
// key-level endorsement-policy routing (validation parameters live in
// the state database, so writes of earlier transactions in the same
// block must be visible) and the MVCC check. Must run in block order.
func (v *Validator) finishValidate(pre *txPrecheck) ledger.ValidationCode {
	if pre.code != ledger.Valid {
		return pre.code
	}
	policyStart := time.Now()
	ok := v.policyRoutingSatisfied(pre)
	if v.timings != nil {
		v.timings.Observe(metrics.ValidatePolicy, pre.policyDur+time.Since(policyStart))
	}
	if !ok {
		return ledger.EndorsementPolicyFailure
	}
	mvccStart := time.Now()
	current := v.versionsCurrent(pre.def, pre.set)
	v.observe(metrics.ValidateMVCC, mvccStart)
	if !current {
		return ledger.MVCCConflict
	}
	return ledger.Valid
}

// observe records a phase latency when timing is enabled.
func (v *Validator) observe(name string, start time.Time) {
	if v.timings != nil {
		v.timings.Observe(name, time.Since(start))
	}
}

// verifiedEndorsers validates endorsement certificates and signatures and
// returns the certificates whose signatures verify. Under the
// supplemental non-member filter, endorsements from organizations outside
// every touched collection's membership are discarded here.
func (v *Validator) verifiedEndorsers(
	tx *ledger.Transaction,
	def *chaincode.Definition,
	set *rwset.TxRWSet,
) ([]*identity.Certificate, ledger.ValidationCode) {
	var touched []*pvtdata.CollectionConfig
	if v.sec.FilterNonMemberEndorsements {
		for _, cs := range set.CollSets {
			if cfg := def.Collection(cs.Collection); cfg != nil {
				touched = append(touched, cfg)
			}
		}
	}

	var signers []*identity.Certificate
	for _, e := range tx.Endorsements {
		// The cache folds certificate parsing, the CA check and the
		// endorsement-signature check into one memoized lookup; repeat
		// endorsers across a block skip the CA-side ECDSA entirely.
		cert, err := v.vcache.VerifyEndorsement(e.Endorser, tx.ResponsePayload, e.Signature)
		if err != nil {
			return nil, ledger.BadSignature
		}
		if excludeNonMember(cert, touched) {
			continue
		}
		signers = append(signers, cert)
	}
	return signers, ledger.Valid
}

func excludeNonMember(cert *identity.Certificate, touched []*pvtdata.CollectionConfig) bool {
	for _, cfg := range touched {
		if !cfg.IsMember(cert.Org) {
			return true
		}
	}
	return false
}

// policyRoutingSatisfied routes the transaction to the applicable
// endorsement policies. The state-independent policies (collection-level
// and chaincode-level) were already evaluated over the verified signers
// in preValidate; this sequential half resolves the key-level validation
// parameters — which live in the state database and may have been
// written by an earlier transaction of the same block — and combines the
// verdicts.
//
// Routing (original Fabric, per the paper §III-C and the key-level
// validation of validator_keylevel.go, the source the paper cites):
//   - transactions that WRITE to a collection with a collection-level
//     endorsement policy must satisfy that policy;
//   - public writes to keys carrying a key-level validation parameter
//     must satisfy that key's policy; such keys are exempt from the
//     chaincode-level policy;
//   - everything else — including all read-only transactions — must
//     satisfy the chaincode-level policy.
//
// Feature 1 adds: transactions that READ a collection with a
// collection-level policy must satisfy it too.
func (v *Validator) policyRoutingSatisfied(pre *txPrecheck) bool {
	// Key-level routing over public writes and metadata writes.
	publicWrites := false
	needChaincodePolicy := false
	keyPolicies := 0
	keyPoliciesOK := true
	for _, ns := range pre.set.NsRWSets {
		for _, w := range ns.Writes {
			publicWrites = true
			if pol := v.keyLevelPolicy(ns.Namespace, w.Key); pol != nil {
				keyPolicies++
				if !pol.Evaluate(pre.signers) {
					keyPoliciesOK = false
				}
			} else {
				needChaincodePolicy = true
			}
		}
		for _, mw := range ns.MetaWrites {
			// Changing a key's validation parameter is itself
			// governed by the key's current policy (or the
			// chaincode-level one if none is set yet).
			publicWrites = true
			if pol := v.keyLevelPolicy(ns.Namespace, mw.Key); pol != nil {
				keyPolicies++
				if !pol.Evaluate(pre.signers) {
					keyPoliciesOK = false
				}
			} else {
				needChaincodePolicy = true
			}
		}
	}
	// Read-only transactions (and transactions whose only effects are
	// collection writes without a collection policy) fall back to the
	// chaincode-level policy — the paper's Use Case 2 routing.
	if pre.collCount+keyPolicies == 0 && !publicWrites {
		needChaincodePolicy = true
	}

	if needChaincodePolicy && !pre.ccOK {
		return false
	}
	return pre.collOK && keyPoliciesOK
}

// keyLevelPolicy resolves the validation parameter of a public key, or
// nil when the key has none (or it fails to parse, in which case the
// chaincode-level policy governs, as a broken parameter must not make
// keys unwritable).
func (v *Validator) keyLevelPolicy(ns, key string) policy.Policy {
	// Zero-copy read: the spec bytes only feed policy.Parse, which does
	// not retain or mutate them.
	spec, _, ok := v.db.GetUnsafe(statedb.MetadataNamespace(ns), key)
	if !ok || len(spec) == 0 {
		return nil
	}
	pol, err := policy.Parse(string(spec))
	if err != nil {
		return nil
	}
	return pol
}

func (v *Validator) applicableCollectionPolicies(
	def *chaincode.Definition,
	set *rwset.TxRWSet,
) []policy.Policy {
	names := rwset.WriteCollections(set)
	if v.sec.CollectionPolicyForReads {
		names = append(names, rwset.ReadCollections(set)...)
	}
	var out []policy.Policy
	seen := make(map[string]bool)
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		cfg := def.Collection(name)
		if cfg == nil || cfg.EndorsementPolicy == "" {
			continue
		}
		pol, err := policy.Parse(cfg.EndorsementPolicy)
		if err != nil {
			continue
		}
		out = append(out, pol)
	}
	return out
}

func (v *Validator) chaincodePolicySatisfied(def *chaincode.Definition, signers []*identity.Certificate) bool {
	pol, err := v.channelCfg.ResolvePolicy(def.EndorsementPolicy)
	if err != nil {
		return false
	}
	return pol.Evaluate(signers)
}

// versionsCurrent performs the version-conflict check: every version in
// the read sets (public and hashed-collection) must match the current
// world state, and every recorded range query must re-execute to the
// identical key/version list (phantom-read protection). The check does
// NOT re-execute chaincode — which is why the paper's fabricated
// proposal responses pass it (§IV-A1).
func (v *Validator) versionsCurrent(def *chaincode.Definition, set *rwset.TxRWSet) bool {
	for _, ns := range set.NsRWSets {
		// Batch the whole read set through one lock acquisition on the
		// namespace shard instead of locking per key.
		if n := len(ns.Reads); n > 0 {
			keys := make([]string, n)
			for i, r := range ns.Reads {
				keys[i] = r.Key
			}
			current := v.db.GetVersions(ns.Namespace, keys)
			for i, r := range ns.Reads {
				if current[i] != r.Version {
					return false
				}
			}
		}
		for _, rq := range ns.RangeQueries {
			if !v.rangeUnchanged(ns.Namespace, rq) {
				return false
			}
		}
	}
	for _, cs := range set.CollSets {
		if n := len(cs.HashedReads); n > 0 {
			hashes := make([][]byte, n)
			for i, r := range cs.HashedReads {
				hashes[i] = r.KeyHash
			}
			current := v.pvt.HashedVersions(def.Name, cs.Collection, hashes)
			for i, r := range cs.HashedReads {
				if current[i] != r.Version {
					return false
				}
			}
		}
	}
	return true
}

// rangeUnchanged re-executes a recorded range query against the current
// state and compares keys and versions exactly. Any inserted (phantom),
// deleted, or updated key in the range invalidates the transaction.
func (v *Validator) rangeUnchanged(ns string, rq rwset.RangeQuery) bool {
	// Version-only scan: the comparison needs keys and versions, so no
	// value is copied out of the store.
	current := v.db.RangeVersions(ns, rq.StartKey, rq.EndKey)
	if len(current) != len(rq.Reads) {
		return false
	}
	for i, kv := range current {
		if kv.Key != rq.Reads[i].Key || kv.Version != rq.Reads[i].Version {
			return false
		}
	}
	return true
}

// commitTx applies a valid transaction's writes: public writes at every
// peer, hashed collection writes at every peer, and original private
// writes at member peers (after verifying the gossiped original against
// the in-block hashes).
func (v *Validator) commitTx(blockNum uint64, tx *ledger.Transaction) {
	prp, err := tx.ResponsePayloadParsed()
	if err != nil {
		return
	}
	set, err := prp.RWSet()
	if err != nil {
		return
	}
	def := v.defs(prp.Chaincode)
	if def == nil {
		return
	}

	for _, ns := range set.NsRWSets {
		for _, w := range ns.Writes {
			if w.IsDelete {
				v.db.Delete(ns.Namespace, w.Key)
			} else {
				v.db.Put(ns.Namespace, w.Key, w.Value)
			}
		}
		for _, mw := range ns.MetaWrites {
			v.db.Put(statedb.MetadataNamespace(ns.Namespace), mw.Key, []byte(mw.Policy))
		}
	}

	for _, cs := range set.CollSets {
		if len(cs.HashedWrites) == 0 {
			continue
		}
		cfg := def.Collection(cs.Collection)
		if cfg == nil {
			continue
		}
		member := cfg.IsMember(v.selfOrg)
		orig := v.originalPvtSet(tx.TxID, cfg, &cs, member)

		for _, hw := range cs.HashedWrites {
			if hw.IsDelete {
				v.pvt.DeleteHashed(def.Name, cs.Collection, hw.KeyHash)
				if member {
					if w := matchWrite(orig, hw.KeyHash); w != nil {
						v.pvt.DeletePrivate(def.Name, cs.Collection, w.Key)
					}
				}
				continue
			}
			ver := v.pvt.ApplyHashedWrite(def.Name, cs.Collection, hw.KeyHash, hw.ValueHash)
			if member {
				if w := matchWrite(orig, hw.KeyHash); w != nil {
					v.pvt.ApplyPrivateWrite(def.Name, cs.Collection, w.Key, w.Value, ver)
					if cfg.BlockToLive > 0 {
						v.pvt.SchedulePurge(blockNum+cfg.BlockToLive, def.Name, cs.Collection, w.Key)
					}
				}
			}
		}
		if member && orig == nil {
			v.recordMissing(tx.TxID, cs.Collection)
		}
	}
	v.transient.Purge(tx.TxID)
}

// originalPvtSet obtains the original private set of a collection for a
// transaction: from the local transient store, falling back to a gossip
// reconciliation pull, verifying in both cases that the original hashes
// to the in-block hashed set.
func (v *Validator) originalPvtSet(
	txID string,
	cfg *pvtdata.CollectionConfig,
	hashed *rwset.CollHashedRWSet,
	member bool,
) *rwset.CollPvtRWSet {
	if !member {
		return nil
	}
	orig := v.transient.GetCollection(txID, cfg.Name)
	if orig == nil || !rwset.MatchesHashed(orig, hashed) {
		orig = v.gossip.Reconcile(v.selfName, cfg, txID)
	}
	if orig == nil || !rwset.MatchesHashed(orig, hashed) {
		return nil
	}
	return orig
}

// matchWrite finds the original write whose key hashes to keyHash.
func matchWrite(orig *rwset.CollPvtRWSet, keyHash []byte) *rwset.KVWrite {
	if orig == nil {
		return nil
	}
	for i := range orig.Writes {
		if fabcrypto.Equal(fabcrypto.HashString(orig.Writes[i].Key), keyHash) {
			return &orig.Writes[i]
		}
	}
	return nil
}
