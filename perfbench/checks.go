package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ledger"
	"repro/internal/peer"
	"repro/internal/pvtdata"
	"repro/internal/rwset"
)

// checker collects failed output checks.
type checker struct{ failures []string }

func (c *checker) failf(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool { return len(c.failures) == 0 }

// terminal checks that every scheduled op ended in exactly one outcome
// and that no two committed ops share a TxID.
func (c *checker) terminal(m *measurement) {
	seen := map[string]bool{}
	for _, r := range append(append([]*rungResult(nil), m.rungs...), m.reads) {
		if r == nil {
			continue
		}
		if len(r.out) != len(r.ops) {
			c.failf("rung at %.0f ops/s: %d outcomes for %d ops", r.rate, len(r.out), len(r.ops))
		}
		for i := range r.out {
			o := &r.out[i]
			if !o.done {
				c.failf("op %d at %.0f ops/s has no outcome", i, r.rate)
			}
			if o.committed && o.err != nil {
				c.failf("op %d at %.0f ops/s both committed and failed", i, r.rate)
			}
			if o.committed {
				if seen[o.txID] {
					c.failf("tx %s reported twice", o.txID)
				}
				seen[o.txID] = true
			}
		}
	}
}

// ledgerAgrees checks that every committed op appears exactly once in
// the peer's chain with the code its client was told.
func (c *checker) ledgerAgrees(p *peer.Peer, m *measurement) {
	count := map[string]int{}
	codes := map[string]ledger.ValidationCode{}
	p.Ledger().Scan(func(_ uint64, tx *ledger.Transaction, code ledger.ValidationCode) bool {
		count[tx.TxID]++
		codes[tx.TxID] = code
		return true
	})
	for _, r := range m.rungs {
		for i := range r.out {
			o := &r.out[i]
			if !o.committed {
				continue
			}
			if count[o.txID] != 1 {
				c.failf("%s: tx %s appears %d times in the chain", p.Name(), o.txID, count[o.txID])
			} else if codes[o.txID] != o.code {
				c.failf("%s: tx %s is %s in the chain, client saw %s", p.Name(), o.txID, codes[o.txID], o.code)
			}
		}
	}
}

// sameState checks that peers at equal height hold byte-identical state.
func (c *checker) sameState(peers []*peer.Peer) {
	h0, s0 := peers[0].Ledger().Height(), peers[0].WorldState().StateHash()
	for _, p := range peers[1:] {
		if h := p.Ledger().Height(); h != h0 {
			c.failf("%s at height %d, %s at %d", p.Name(), h, peers[0].Name(), h0)
		} else if s := p.WorldState().StateHash(); !bytes.Equal(s, s0) {
			c.failf("%s and %s differ in state hash at height %d", p.Name(), peers[0].Name(), h)
		}
	}
}

// sharedStateDigest hashes every namespace except the collection's
// plaintext one: the part of the state members and non-members share.
func sharedStateDigest(p *peer.Peer) []byte {
	db := p.WorldState()
	skip := pvtdata.PrivateNamespace(ccName, collName)
	h := sha256.New()
	for _, ns := range db.Namespaces() {
		if ns == skip {
			continue
		}
		for _, k := range db.Keys(ns) {
			v, ver, _ := db.Get(ns, k)
			fmt.Fprintf(h, "%q %q %d %x\n", ns, k, ver, v)
		}
	}
	return h.Sum(nil)
}

// sameSharedState checks that every peer agrees on the state outside
// the collection's plaintext namespace.
func (c *checker) sameSharedState(peers []*peer.Peer) {
	d0 := sharedStateDigest(peers[0])
	for _, p := range peers[1:] {
		if !bytes.Equal(sharedStateDigest(p), d0) {
			c.failf("%s and %s differ in public and hashed state", p.Name(), peers[0].Name())
		}
	}
}

// reads checks that every read returned its expected value. want maps a
// read op to the value it must return; ops without an entry are
// skipped.
func (c *checker) reads(r *rungResult, want func(*op) (string, bool)) {
	if r == nil {
		return
	}
	for i := range r.ops {
		o, out := &r.ops[i], &r.out[i]
		if o.kind != opRead {
			continue
		}
		if out.err != nil {
			c.failf("read %s: %v", o.key, out.err)
			continue
		}
		if v, ok := want(o); ok && string(out.payload) != v {
			c.failf("read %s returned %d bytes, want the %d-byte value written", o.key, len(out.payload), len(v))
		}
	}
}

// lastWrites returns each key's value as of the chain's end: the last
// VALID "set" on it in chain order.
func lastWrites(p *peer.Peer) map[string]string {
	last := map[string]string{}
	p.Ledger().Scan(func(_ uint64, tx *ledger.Transaction, code ledger.ValidationCode) bool {
		if code == ledger.Valid && tx.Proposal != nil && tx.Proposal.Function == "set" && len(tx.Proposal.Args) == 2 {
			last[tx.Proposal.Args[0]] = tx.Proposal.Args[1]
		}
		return true
	})
	return last
}

// privateLeaks returns the private values found in a committed
// transaction: in its serialized form, its response payload, its event
// and every public write it carries.
func privateLeaks(tx *ledger.Transaction, values map[string]bool) []string {
	blobs := [][]byte{tx.Bytes(), tx.ResponsePayload}
	if prp, err := tx.ResponsePayloadParsed(); err == nil {
		blobs = append(blobs, prp.Response.Payload, prp.Results)
		if prp.Event != nil {
			blobs = append(blobs, prp.Event.Payload)
		}
		if set, err := rwset.UnmarshalTxRWSet(prp.Results); err == nil {
			for _, ns := range set.NsRWSets {
				for _, w := range ns.Writes {
					blobs = append(blobs, w.Value)
				}
			}
		}
	}
	var found []string
	for _, b := range blobs {
		found = append(found, findValues(b, values)...)
	}
	return found
}

// findValues returns every member of values (all privateValueLen-digit
// strings) that occurs in b.
func findValues(b []byte, values map[string]bool) []string {
	var found []string
	run := 0
	for i := 0; i <= len(b); i++ {
		if i < len(b) && b[i] >= '0' && b[i] <= '9' {
			run++
			continue
		}
		for j := i - run; j+privateValueLen <= i; j++ {
			if s := string(b[j : j+privateValueLen]); values[s] {
				found = append(found, s)
			}
		}
		run = 0
	}
	return found
}

// pdcChecks are the checks only the private-data workload has.
func (c *checker) pdc(n *inprocNet, g *pdcGen, nonMemberDir string) {
	allValues := g.all
	live := g.value
	memberPeers, nonMember := n.peers[:2], n.peers[2]
	for _, p := range memberPeers {
		for k, v := range live {
			got, _, ok := p.PvtStore().GetPrivate(ccName, collName, k)
			if !ok || string(got) != v {
				c.failf("%s: private %s = %q (held %v), want the written value", p.Name(), k, got, ok)
			}
		}
		if miss := len(p.Validator().Missing()); miss != 0 {
			c.failf("%s: %d private-data records still missing", p.Name(), miss)
		}
	}
	for _, p := range memberPeers {
		held := p.PvtStore().PrivateKeys(ccName, collName)
		if len(held) != len(live) {
			c.failf("%s holds %d private keys, want the %d live ones", p.Name(), len(held), len(live))
		}
	}
	if held := nonMember.PvtStore().PrivateKeys(ccName, collName); len(held) != 0 {
		c.failf("non-member %s holds %d plaintext private keys", nonMember.Name(), len(held))
	}
	for k := range live {
		if _, _, ok := nonMember.PvtStore().GetPrivateHash(ccName, collName, k); !ok {
			c.failf("non-member %s lacks the hash of live key %s", nonMember.Name(), k)
			break
		}
	}
	for _, p := range n.peers {
		p.Ledger().Scan(func(num uint64, tx *ledger.Transaction, _ ledger.ValidationCode) bool {
			if leaks := privateLeaks(tx, allValues); len(leaks) > 0 {
				c.failf("%s: block %d tx %s carries private value %s", p.Name(), num, tx.TxID, leaks[0])
				return false
			}
			return true
		})
	}
	filepath.Walk(nonMemberDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			c.failf("read %s: %v", path, err)
			return nil
		}
		if leaks := findValues(b, allValues); len(leaks) > 0 {
			c.failf("non-member file %s holds private value %s", filepath.Base(path), leaks[0])
		}
		return nil
	})
}

// clusterState checks that every peer process reports the same height
// and state hash over peer.info.
func (c *checker) clusterState(ctx context.Context, s *clusterSys) {
	var h0 uint64
	var s0 string
	for i, p := range s.peers {
		info, err := p.Info(ctx)
		if err != nil {
			c.failf("%s: peer.info: %v", p.Name(), err)
			return
		}
		if i == 0 {
			h0, s0 = info.Height, info.StateHash
			continue
		}
		if info.Height != h0 {
			c.failf("%s at height %d, %s at %d", p.Name(), info.Height, s.peers[0].Name(), h0)
		} else if info.StateHash != s0 || s0 == "" {
			c.failf("%s and %s differ in state hash at height %d", p.Name(), s.peers[0].Name(), h0)
		}
	}
}
