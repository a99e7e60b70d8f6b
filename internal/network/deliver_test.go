package network

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/deliver"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/peer"
	"repro/internal/service"
)

// TestDeliverStatusMVCCConflict: two transactions endorsed against the
// same state, ordered back to back — the commit-status stream reports
// VALID for the first and MVCC_READ_CONFLICT (with detail) for the
// second.
func TestDeliverStatusMVCCConflict(t *testing.T) {
	n := newTestNet(t)
	gw := n.Gateway("org1")
	ctx := context.Background()

	if _, err := gw.Network("c1").Contract("asset").Submit(ctx, "set", gateway.WithArguments("k", "1")); err != nil {
		t.Fatal(err)
	}

	sub := n.Peer("org1").Deliver().SubscribeLive()
	defer sub.Close()

	// Endorse both increments before ordering either: the second reads a
	// version the first invalidates.
	endorse := func() *ledger.Transaction {
		prop, err := gw.NewProposal("asset", "add", []string{"k", "1"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tx, _, err := gw.EndorseProposal(ctx, prop, service.AsEndorsers(n.Peers()))
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	tx1, tx2 := endorse(), endorse()
	res1, err := gw.SubmitAssembled(ctx, tx1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := gw.SubmitAssembled(ctx, tx2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Code != ledger.Valid {
		t.Fatalf("first tx = %v", res1.Code)
	}
	if res2.Code != ledger.MVCCConflict || res2.Detail == "" {
		t.Fatalf("second tx = %v (%q)", res2.Code, res2.Detail)
	}

	// The raw stream carries the same codes, in commit order.
	st1, err := sub.WaitTxStatus(ctx, tx1.TxID)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sub.WaitTxStatus(ctx, tx2.TxID)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Code != ledger.Valid || st2.Code != ledger.MVCCConflict {
		t.Fatalf("stream codes = %v, %v", st1.Code, st2.Code)
	}
}

// TestDeliverStatusPolicyFailure: the stream marks a minority-endorsed
// transaction ENDORSEMENT_POLICY_FAILURE at every peer.
func TestDeliverStatusPolicyFailure(t *testing.T) {
	n := newTestNet(t)
	sub := n.Peer("org3").Deliver().SubscribeLive()
	defer sub.Close()

	res, err := n.Gateway("org1").Network("c1").Contract("asset").Submit(
		context.Background(), "set",
		gateway.WithArguments("k", "v"),
		gateway.WithEndorsers(n.Peer("org1")))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sub.WaitTxStatus(context.Background(), res.TxID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Code != ledger.EndorsementPolicyFailure || st.Detail == "" {
		t.Fatalf("status = %v (%q)", st.Code, st.Detail)
	}
}

// TestDeliverStatusMissingPrivateData: a member peer cut off from gossip
// commits a private write without the original data; its commit-status
// event carries the missing-collection marker, while the serving member's
// does not.
func TestDeliverStatusMissingPrivateData(t *testing.T) {
	n := newTestNet(t)
	ctx := context.Background()
	isolated := n.Peer("org2").Deliver().SubscribeLive()
	defer isolated.Close()
	serving := n.Peer("org1").Deliver().SubscribeLive()
	defer serving.Close()

	n.Gossip.Isolate("peer0.org2", true)
	defer n.Gossip.Isolate("peer0.org2", false)

	res, err := n.Gateway("org1").Network("c1").Contract("asset").Submit(
		ctx, "setPrivate",
		gateway.WithArguments("k1", "12"),
		gateway.WithEndorsers(n.Peer("org1"), n.Peer("org3")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != ledger.Valid {
		t.Fatalf("code = %v", res.Code)
	}
	if len(res.MissingCollections) != 0 {
		t.Fatalf("serving member reported missing %v", res.MissingCollections)
	}

	st, err := isolated.WaitTxStatus(ctx, res.TxID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Code != ledger.Valid {
		t.Fatalf("isolated code = %v", st.Code)
	}
	if len(st.MissingCollections) != 1 || st.MissingCollections[0] != "pdc1" {
		t.Fatalf("isolated missing = %v", st.MissingCollections)
	}
	st, err = serving.WaitTxStatus(ctx, res.TxID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.MissingCollections) != 0 {
		t.Fatalf("serving missing = %v", st.MissingCollections)
	}
}

// TestDeliverReplayFromCheckpointAfterRestart: a subscriber checkpoints
// its position, the peer restarts from disk, and a new subscription from
// the checkpoint observes every block exactly once — the replayed gap
// from the block store first, then live blocks.
func TestDeliverReplayFromCheckpointAfterRestart(t *testing.T) {
	n := newTestNet(t)
	dir := t.TempDir()

	sec := core.OriginalFabric()
	sec.StorageBackend, sec.StorageDir = "durable", dir
	mkPeer := func() *peer.Peer {
		id, err := n.CA("org2").Issue("peer8.org2", "peer")
		if err != nil {
			t.Fatal(err)
		}
		p, err := peer.New(peer.Config{
			Identity: id,
			Channel:  n.Channel,
			Gossip:   n.Gossip,
			Security: sec,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		if err := p.ApproveDefinition(n.Peer("org2").Definition("asset")); err != nil {
			t.Fatal(err)
		}
		return p
	}

	durable := mkPeer()
	n.Orderer.RegisterDelivery(func(b *ledger.Block) { _ = durable.CommitBlock(b) })

	contract := n.Gateway("org1").Network("c1").Contract("asset")
	ctx := context.Background()
	for _, key := range []string{"a", "b"} {
		if _, err := contract.Submit(ctx, "set", gateway.WithArguments(key, "1")); err != nil {
			t.Fatal(err)
		}
	}

	// First subscriber consumes blocks 0..1 and checkpoints.
	cp := deliver.NewCheckpoint(0)
	seen := make(map[uint64]int)
	sub, err := durable.Deliver().Subscribe(cp.Next())
	if err != nil {
		t.Fatal(err)
	}
	for len(seen) < 2 {
		ev, err := sub.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if be, ok := ev.(*deliver.BlockEvent); ok {
			seen[be.Number]++
			cp.Observe(be.Number)
		}
	}
	sub.Close()
	if cp.Next() != 2 {
		t.Fatalf("checkpoint = %d", cp.Next())
	}

	// The chain grows one block while the durable peer is "down".
	if _, err := contract.Submit(ctx, "set", gateway.WithArguments("c", "1")); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory and resume from the checkpoint:
	// block 2 arrives as a store replay, block 3 live.
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := mkPeer()
	if err := restarted.Restore(); err != nil {
		t.Fatal(err)
	}
	n.Orderer.RegisterDelivery(func(b *ledger.Block) { _ = restarted.CommitBlock(b) })
	sub2, err := restarted.Deliver().Subscribe(cp.Next())
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()

	if _, err := contract.Submit(ctx, "set", gateway.WithArguments("d", "1")); err != nil {
		t.Fatal(err)
	}
	for cp.Next() < 4 {
		ev, err := sub2.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if be, ok := ev.(*deliver.BlockEvent); ok {
			seen[be.Number]++
			cp.Observe(be.Number)
			if wantReplay := be.Number == 2; be.Replayed != wantReplay {
				t.Fatalf("block %d replayed = %v", be.Number, be.Replayed)
			}
		}
	}

	for num := uint64(0); num < 4; num++ {
		if seen[num] != 1 {
			t.Fatalf("block %d observed %d times, want exactly once (%v)", num, seen[num], seen)
		}
	}
}
