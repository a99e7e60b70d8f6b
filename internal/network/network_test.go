package network

import (
	"strings"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/contracts"
	"repro/internal/ledger"
	"repro/internal/peer"
	"repro/internal/pvtdata"
)

// newTestNet builds the paper's three-org prototype: org1 and org2 are
// PDC members, org3 is a non-member, chaincode-level policy is the
// channel default ("MAJORITY Endorsement").
func newTestNet(t *testing.T) *Network {
	t.Helper()
	n, err := New(Options{
		Orgs: []string{"org1", "org2", "org3"},
		Seed: 42,
	})
	if err != nil {
		t.Fatalf("build network: %v", err)
	}
	def := &chaincode.Definition{
		Name:    "asset",
		Version: "1.0",
		Collections: []pvtdata.CollectionConfig{{
			Name:         "pdc1",
			MemberPolicy: "OR(org1.member, org2.member)",
			MaxPeerCount: 3,
		}},
	}
	if err := n.DeployChaincode(def, contracts.NewPublicAsset()); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	install := func(org string, c contracts.Constraint) {
		merged := contracts.NewPublicAsset()
		for name, fn := range contracts.NewPDC(contracts.PDCOptions{Collection: "pdc1", Constraint: c}) {
			merged[name] = fn
		}
		n.Peer(org).InstallChaincode("asset", merged)
	}
	install("org1", contracts.MaxValue(15))
	install("org2", contracts.MinValue(10))
	install("org3", nil)
	return n
}

// TestPublicTransactionRoundTrip commits a public write through the full
// network (endorse, order, validate, commit) and reads it back; the
// 16KiB case carries a large value through every stage.
func TestPublicTransactionRoundTrip(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")

	for _, tc := range []struct{ name, key, value string }{
		{"small", "k1", "hello"},
		{"16KiB", "k2", strings.Repeat("v", 16<<10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := submitTx(cl, n.Peers(), "asset", "set", []string{tc.key, tc.value}, nil)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			if res.Code != ledger.Valid {
				t.Fatalf("tx code = %v, want Valid", res.Code)
			}

			for _, p := range n.Peers() {
				value, ver, ok := p.WorldState().Get("asset", tc.key)
				if !ok || string(value) != tc.value || ver != 1 {
					t.Errorf("peer %s: got (%d bytes, v%d, %v), want (%d bytes, v1, true)", p.Name(), len(value), ver, ok, len(tc.value))
				}
			}

			payload, err := evalTx(cl, n.Peer("org2"), "asset", "get", tc.key)
			if err != nil {
				t.Fatalf("evaluate: %v", err)
			}
			if string(payload) != tc.value {
				t.Fatalf("evaluate payload = %d bytes, want %d", len(payload), len(tc.value))
			}
		})
	}
}

func TestPDCWriteVisibleOnlyAtMembers(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")
	// Honest flow: endorse with both member orgs (value 12 satisfies
	// org1's <15 and org2's >10).
	res, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org2")},
		"asset", "setPrivate", []string{"k1", "12"}, nil,
	)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Code != ledger.Valid {
		t.Fatalf("tx code = %v, want Valid", res.Code)
	}

	for _, org := range []string{"org1", "org2"} {
		value, ver, ok := n.Peer(org).PvtStore().GetPrivate("asset", "pdc1", "k1")
		if !ok || string(value) != "12" || ver != 1 {
			t.Errorf("member %s: got (%q, v%d, %v), want (12, v1, true)", org, value, ver, ok)
		}
	}
	if _, _, ok := n.Peer("org3").PvtStore().GetPrivate("asset", "pdc1", "k1"); ok {
		t.Error("non-member org3 has original private data")
	}
	if _, ver, ok := n.Peer("org3").PvtStore().GetPrivateHash("asset", "pdc1", "k1"); !ok || ver != 1 {
		t.Errorf("non-member org3 hash store: ok=%v ver=%d, want true, 1", ok, ver)
	}
}

func TestNonMemberEndorserErrorsOnPDCRead(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")
	if _, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org2")},
		"asset", "setPrivate", []string{"k1", "12"}, nil,
	); err != nil {
		t.Fatalf("setup write: %v", err)
	}

	// Use Case 1: a read proposal to the non-member fails with the
	// private-data-unavailable error.
	_, err := evalTx(cl, n.Peer("org3"), "asset", "readPrivate", "k1")
	if err == nil {
		t.Fatal("non-member endorsed a PDC read without error")
	}
	if !strings.Contains(err.Error(), "private data is not available") {
		t.Fatalf("unexpected error: %v", err)
	}

	// But the same non-member endorses a write-only proposal fine
	// (empty read set: nothing to look up).
	if _, err := evalTx(cl, n.Peer("org3"), "asset", "setPrivate", "k1", "5"); err != nil {
		t.Fatalf("non-member write-only endorsement failed: %v", err)
	}

	// And GetPrivateDataHash works on the non-member, reporting the
	// same version the members hold — the §IV-A1 version oracle.
	digest, err := evalTx(cl, n.Peer("org3"), "asset", "readPrivateHash", "k1")
	if err != nil {
		t.Fatalf("readPrivateHash on non-member: %v", err)
	}
	if len(digest) == 0 {
		t.Fatal("readPrivateHash returned empty digest")
	}
}

func TestMVCCConflictRejected(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")
	if _, err := submitTx(cl, n.Peers(), "asset", "set", []string{"k", "1"}, nil); err != nil {
		t.Fatalf("setup: %v", err)
	}

	// Endorse a read-write transaction, then commit a conflicting
	// write before ordering the first one.
	prop, err := cl.NewProposal("asset", "add", []string{"k", "1"}, nil)
	if err != nil {
		t.Fatalf("proposal: %v", err)
	}
	tx, _, err := endorseProp(cl, prop, n.Peers())
	if err != nil {
		t.Fatalf("endorse: %v", err)
	}
	if _, err := submitTx(cl, n.Peers(), "asset", "set", []string{"k", "9"}, nil); err != nil {
		t.Fatalf("interleaved write: %v", err)
	}
	res, err := orderTx(cl, tx)
	if err != nil {
		t.Fatalf("order stale tx: %v", err)
	}
	if res.Code != ledger.MVCCConflict {
		t.Fatalf("stale tx code = %v, want MVCC_READ_CONFLICT", res.Code)
	}
	// The stale transaction must not have changed the state.
	value, _, _ := n.Peer("org1").WorldState().Get("asset", "k")
	if string(value) != "9" {
		t.Fatalf("state = %q, want 9", value)
	}
}

func TestReadSubmittedAsTransactionLandsInAllLedgers(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")
	if _, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org2")},
		"asset", "setPrivate", []string{"k1", "12"}, nil,
	); err != nil {
		t.Fatalf("setup write: %v", err)
	}

	// The audited-read pattern (§IV-B1): the read is submitted as a
	// transaction, so every peer, including the non-member, stores it.
	res, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org2")},
		"asset", "readPrivate", []string{"k1"}, nil,
	)
	if err != nil {
		t.Fatalf("submit read: %v", err)
	}
	if string(res.Payload) != "12" {
		t.Fatalf("read payload = %q, want 12", res.Payload)
	}
	if _, _, err := n.Peer("org3").Ledger().Transaction(res.TxID); err != nil {
		t.Fatalf("non-member ledger lacks read tx: %v", err)
	}
}
