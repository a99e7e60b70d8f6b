package identity

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/fabcrypto"
	"repro/internal/metrics"
)

// DefaultVerifyCacheSize is the LRU capacity used when a VerifyCache is
// created with capacity 0.
const DefaultVerifyCacheSize = 4096

// VerifyCache memoizes successful endorsement verifications over a
// Verifier. Validating a block re-verifies the same endorser
// certificates (and, when a transaction is re-validated, the same
// signatures) over and over; each verification costs two ECDSA
// operations — the CA signature over the certificate and the endorser
// signature over the payload. The cache short-circuits both.
//
// Two LRU maps are kept:
//
//   - certificates: serialized certificate bytes -> parsed certificate
//     whose CA signature verified. Repeat endorsers across a block are
//     the common case, so this hits on nearly every transaction.
//   - endorsements: (certificate, message, signature) digest -> verified.
//     This hits only when the identical transaction is re-validated
//     (e.g. perf measurement loops, re-delivered blocks).
//
// Invalidation rules (see docs/VALIDATION.md):
//
//   - Only SUCCESSFUL verifications are cached. A signature that fails
//     because the org's CA is not yet trusted must be re-checked after a
//     later TrustCA, so negative results are never stored.
//   - Every entry records the Verifier generation it was verified under;
//     TrustCA bumps the generation, so CA rotation turns all earlier
//     entries into misses (they are evicted lazily).
//   - Capacity is bounded; least-recently-used entries are evicted.
//
// The first verification of a key is single-flight: callers that miss
// while another caller is already verifying the same key wait for that
// outcome instead of repeating the ECDSA work, and count as hits.
//
// The zero value is not usable; construct with NewVerifyCache. All
// methods are safe for concurrent use by validation workers.
type VerifyCache struct {
	verifier *Verifier
	counters *metrics.Counters // optional hit/miss counters

	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight
}

type cacheEntry struct {
	key  string
	gen  uint64
	cert *Certificate
}

// flight is one in-progress first verification of a key; done closes
// once cert/err are set.
type flight struct {
	gen  uint64
	done chan struct{}
	cert *Certificate
	err  error
}

// NewVerifyCache wraps a Verifier with an LRU verification cache.
// capacity 0 selects DefaultVerifyCacheSize; a negative capacity
// disables caching entirely (every call verifies in full). counters, when
// non-nil, receives VerifyCacheHits/VerifyCacheMisses.
func NewVerifyCache(v *Verifier, capacity int, counters *metrics.Counters) *VerifyCache {
	if capacity == 0 {
		capacity = DefaultVerifyCacheSize
	}
	return &VerifyCache{
		verifier: v,
		counters: counters,
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Verifier returns the wrapped Verifier.
func (c *VerifyCache) Verifier() *Verifier { return c.verifier }

// Len returns the number of live cache entries.
func (c *VerifyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Flush drops every cache entry.
func (c *VerifyCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
}

// get returns the certificate verified under key, running verify on a
// miss. Concurrent misses on one key share a single verify call: the
// first caller runs it, later callers wait for its outcome and report
// hit. Only successful verifications are stored.
func (c *VerifyCache) get(key string, gen uint64, verify func() (*Certificate, error)) (cert *Certificate, hit bool, err error) {
	if c.cap < 0 {
		cert, err = verify()
		return cert, false, err
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.gen == gen {
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			return e.cert, true, nil
		}
		// Stale (old-generation) entries are removed.
		c.ll.Remove(el)
		delete(c.items, key)
	}
	if f, ok := c.inflight[key]; ok && f.gen == gen {
		c.mu.Unlock()
		<-f.done
		return f.cert, f.err == nil, f.err
	}
	f := &flight{gen: gen, done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.cert, f.err = verify()

	c.mu.Lock()
	if c.inflight[key] == f {
		delete(c.inflight, key)
	}
	if f.err == nil {
		c.storeLocked(&cacheEntry{key: key, gen: gen, cert: f.cert})
	}
	c.mu.Unlock()
	close(f.done)
	return f.cert, false, f.err
}

// storeLocked inserts a verified entry, evicting the LRU tail past
// capacity. c.mu must be held.
func (c *VerifyCache) storeLocked(e *cacheEntry) {
	if el, ok := c.items[e.key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
	}
}

func (c *VerifyCache) hit()  { c.count(metrics.VerifyCacheHits) }
func (c *VerifyCache) miss() { c.count(metrics.VerifyCacheMisses) }

func (c *VerifyCache) count(name string) {
	if c.counters != nil {
		c.counters.Inc(name)
	}
}

func certKey(certBytes []byte) string {
	return "c/" + string(fabcrypto.Hash(certBytes))
}

func endorsementKey(certBytes, msg, sig []byte) string {
	return "e/" + string(fabcrypto.HashConcat(certBytes, msg, sig))
}

// ParseAndValidate parses a serialized certificate and checks its CA
// signature, serving repeat certificates from the cache.
func (c *VerifyCache) ParseAndValidate(certBytes []byte) (*Certificate, error) {
	cert, hit, err := c.get(certKey(certBytes), c.verifier.Generation(), func() (*Certificate, error) {
		cert, err := ParseCertificate(certBytes)
		if err != nil {
			return nil, err
		}
		if err := c.verifier.ValidateCertificate(cert); err != nil {
			return nil, err
		}
		return cert, nil
	})
	if hit {
		c.hit()
	} else {
		c.miss()
	}
	return cert, err
}

// VerifyEndorsement checks that sig over msg was produced by the subject
// of the serialized certificate, and that the certificate is valid under
// a trusted CA — the cached equivalent of ParseCertificate +
// Verifier.VerifySignature. On a full hit no ECDSA operation runs.
func (c *VerifyCache) VerifyEndorsement(certBytes, msg, sig []byte) (*Certificate, error) {
	// An endorsement miss is not counted: the certificate lookup inside
	// counts the hit or miss that follows.
	cert, hit, err := c.get(endorsementKey(certBytes, msg, sig), c.verifier.Generation(), func() (*Certificate, error) {
		cert, err := c.ParseAndValidate(certBytes)
		if err != nil {
			return nil, err
		}
		if err := fabcrypto.Verify(cert.PubKey, msg, sig); err != nil {
			return nil, fmt.Errorf("identity: signature by %q: %w", cert.Subject, err)
		}
		return cert, nil
	})
	if hit {
		c.hit()
	}
	return cert, err
}
