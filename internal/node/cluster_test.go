package node_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/netconfig"
	"repro/internal/node"
	"repro/internal/orderer"
	"repro/internal/pvtdata"
	"repro/internal/service"
)

// TestMain doubles as the cluster's role runner: LaunchCluster re-execs
// this test binary with PDC_WIRE_ROLE set, and the child becomes a
// peer/orderer/gateway process instead of running the tests.
func TestMain(m *testing.M) {
	if handled, err := node.RunRoleFromEnv(); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "node role:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// clusterConfig is the test topology: three orgs, one peer each, the
// "asset" chaincode with a private collection shared by org1 and org2.
func clusterConfig() *netconfig.Config {
	return &netconfig.Config{
		Orgs:      []string{"org1", "org2", "org3"},
		BatchSize: 8,
		Seed:      1,
		Chaincodes: []netconfig.Chaincode{{
			Name:    "asset",
			Version: "1.0",
			Collections: []pvtdata.CollectionConfig{{
				Name:         "pdc1",
				MemberPolicy: "OR(org1.member, org2.member)",
				MaxPeerCount: 3,
			}},
			Contract:   "merged",
			Collection: "pdc1",
		}},
	}
}

func launchTestCluster(t *testing.T, tls bool) *node.Cluster {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short mode")
	}
	cfg := clusterConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var stderr *os.File
	if testing.Verbose() {
		stderr = os.Stderr
	}
	cl, err := node.LaunchCluster(cfg, node.LaunchOptions{
		Self:   self,
		Dir:    t.TempDir(),
		TLS:    tls,
		Stderr: stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

// waitConverged polls every peer process until all report the same
// chain height (>= minHeight), and the peers named in statePeers (nil =
// all) report byte-identical state hashes. Non-members of a private
// collection legitimately diverge in state after a PDC write — they
// hold only the hashed writes — so PDC tests restrict the state check
// to the member set.
func waitConverged(t *testing.T, cl *node.Cluster, minHeight uint64, statePeers []string) (uint64, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	names := cl.PeerNames()
	if statePeers == nil {
		statePeers = names
	}
	matchState := make(map[string]bool, len(statePeers))
	for _, name := range statePeers {
		matchState[name] = true
	}
	var lastState string
	for {
		heights := make([]uint64, len(names))
		states := make([]string, 0, len(statePeers))
		ok := true
		for i, name := range names {
			pc, err := cl.DialPeer(name)
			if err != nil {
				t.Fatalf("dial %s: %v", name, err)
			}
			info, err := pc.Info(ctx)
			pc.Close()
			if err != nil {
				t.Fatalf("info %s: %v", name, err)
			}
			heights[i] = info.Height
			if info.Height < minHeight || heights[i] != heights[0] {
				ok = false
			}
			if matchState[name] {
				states = append(states, info.StateHash)
				if info.StateHash == "" || states[len(states)-1] != states[0] {
					ok = false
				}
			}
		}
		lastState = fmt.Sprintf("heights=%v states=%v", heights, states)
		if ok {
			return heights[0], states[0]
		}
		select {
		case <-ctx.Done():
			t.Fatalf("peers did not converge: %s", lastState)
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// TestClusterZipfBurstConverges is the loopback-cluster integration
// test: five real OS processes (3 peers, orderer, gateway), a burst of
// concurrent blind writes on a few hot keys submitted through the wire
// gateway, every one committing Valid, and every peer ending at the same
// height with a byte-identical state hash.
func TestClusterZipfBurstConverges(t *testing.T) {
	cl := launchTestCluster(t, false)
	gwc, err := cl.DialGateway()
	if err != nil {
		t.Fatal(err)
	}
	defer gwc.Close()

	const clients, perClient, keys = 4, 25, 16
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	errs := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				key := fmt.Sprintf("z%d", (c*perClient+i)%keys)
				req := service.NewInvoke("asset", "set", key, fmt.Sprintf("v%d-%d", c, i)).OnChannel(cl.Material.Channel)
				res, err := gwc.Submit(ctx, req)
				switch {
				case err != nil:
					errs <- fmt.Errorf("client %d tx %d: %w", c, i, err)
				case res.Code != ledger.Valid:
					errs <- fmt.Errorf("client %d tx %d committed %v", c, i, res.Code)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	height, state := waitConverged(t, cl, 1, nil)
	if height == 0 {
		t.Fatal("cluster height still 0 after the burst")
	}
	t.Logf("converged: %d blocks, state %s, %.0f tx/s over the wire", height, state[:12], clients*perClient/elapsed.Seconds())
}

// TestClusterPrivateDataCrossProcess checks the PDC flow between
// processes: a private write endorsed through the wire is readable on
// every member peer (its private set served over peer.pvt) and absent
// from the non-member.
func TestClusterPrivateDataCrossProcess(t *testing.T) {
	cl := launchTestCluster(t, false)
	gwc, err := cl.DialGateway()
	if err != nil {
		t.Fatal(err)
	}
	defer gwc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	res, err := gwc.Submit(ctx, service.NewInvoke("asset", "setPrivate", "k1", "42").OnChannel(cl.Material.Channel))
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != ledger.Valid {
		t.Fatalf("setPrivate committed %v", res.Code)
	}
	// All peers reach the same height, but only the collection members
	// converge in state: the private namespace lives in member world
	// state while org3 stores the hashed writes alone.
	waitConverged(t, cl, 1, []string{"peer0.org1", "peer0.org2"})

	// Member peers must serve the original private set; the reconcile
	// loop gives stragglers a moment to pull it.
	for _, name := range []string{"peer0.org1", "peer0.org2"} {
		deadline := time.Now().Add(10 * time.Second)
		for {
			pc, err := cl.DialPeer(name)
			if err != nil {
				t.Fatal(err)
			}
			set, err := pc.FetchPrivateData(ctx, res.TxID, "pdc1")
			pc.Close()
			if err != nil {
				t.Fatalf("%s: fetch private data: %v", name, err)
			}
			if set != nil && len(set.Writes) == 1 && set.Writes[0].Key == "k1" && string(set.Writes[0].Value) == "42" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: private data not available: %+v", name, set)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	// The non-member must have nothing to serve.
	pc, err := cl.DialPeer("peer0.org3")
	if err != nil {
		t.Fatal(err)
	}
	set, err := pc.FetchPrivateData(ctx, res.TxID, "pdc1")
	pc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if set != nil {
		t.Fatalf("non-member peer0.org3 served private data: %+v", set)
	}
}

// TestClusterSnapshotJoin is the multi-process cold-join path end to
// end: the orderer's retention window compacts history away, a late
// peer process hits ErrCompacted at height 0, fetches a snapshot from a
// running peer over the wire (peer.snapshot.meta/chunks), installs it,
// and converges with the members — private data included — without
// genesis replay.
func TestClusterSnapshotJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short mode")
	}
	cfg := clusterConfig()
	cfg.PeersPerOrg = 2
	cfg.BatchSize = 1 // one block per submit: history grows fast
	cfg.RetainBlocks = 4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var stderr *os.File
	if testing.Verbose() {
		stderr = os.Stderr
	}
	cl, err := node.LaunchCluster(cfg, node.LaunchOptions{
		Self:   self,
		Dir:    t.TempDir(),
		Stderr: stderr,
		// Hold the second peer of every org back; peer1.org1 joins late.
		SkipPeers: []string{"peer1.org1", "peer1.org2", "peer1.org3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	gwc, err := cl.DialGateway()
	if err != nil {
		t.Fatal(err)
	}
	defer gwc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// History: one private write the snapshot must carry, then enough
	// public writes to push block 0 out of the retention window.
	pvt, err := gwc.Submit(ctx, service.NewInvoke("asset", "setPrivate", "k1", "42").OnChannel(cl.Material.Channel))
	if err != nil {
		t.Fatal(err)
	}
	if pvt.Code != ledger.Valid {
		t.Fatalf("setPrivate committed %v", pvt.Code)
	}
	for i := 0; i < 8; i++ {
		res, err := gwc.Submit(ctx, service.NewInvoke("asset", "set", fmt.Sprintf("key-%d", i), fmt.Sprintf("%d", i)).OnChannel(cl.Material.Channel))
		if err != nil {
			t.Fatal(err)
		}
		if res.Code != ledger.Valid {
			t.Fatalf("set key-%d committed %v", i, res.Code)
		}
	}
	members := []string{"peer0.org1", "peer0.org2"}
	height, _ := waitConverged(t, cl, uint64(cfg.RetainBlocks)+2, members)

	// Wait until the drain-gated retention compaction has actually
	// evicted block 0: a replay-from-genesis subscription must fail
	// with ErrCompacted before the late joiner can prove anything.
	for {
		oc, err := cl.DialOrderer()
		if err != nil {
			t.Fatal(err)
		}
		stream, err := oc.Blocks(ctx, 0)
		if err == nil {
			stream.Close()
			oc.Close()
			select {
			case <-ctx.Done():
				t.Fatal("orderer never compacted block 0 away")
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		oc.Close()
		if !errors.Is(err, orderer.ErrCompacted) {
			t.Fatalf("replay-from-genesis probe failed with %v, want ErrCompacted", err)
		}
		break
	}

	// The late joiner must bootstrap from peer0.org1's snapshot — the
	// orderer can no longer serve it a genesis replay.
	if err := cl.JoinPeer("peer1.org1", "peer0.org1"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, cl, height, append(members, "peer1.org1"))

	// The joiner's chain base proves the snapshot path: a genesis
	// replay would leave it at 0. Its state hash matching the members'
	// (waitConverged above) proves the snapshot carried the private
	// write — k1 lives in the private namespace of the member state.
	pc, err := cl.DialPeer("peer1.org1")
	if err != nil {
		t.Fatal(err)
	}
	info, err := pc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Base == 0 {
		t.Fatal("joiner has chain base 0 — it replayed from genesis instead of installing a snapshot")
	}
	if info.Base > info.Height {
		t.Fatalf("joiner base %d above height %d", info.Base, info.Height)
	}

	// The joiner is a full collection member from here on: a fresh
	// private write lands in a post-base block, the joiner records it
	// missing (no one pushes to it) and reconciles it from the members,
	// after which it serves the set itself.
	pvt2, err := gwc.Submit(ctx, service.NewInvoke("asset", "setPrivate", "k2", "43").OnChannel(cl.Material.Channel))
	if err != nil {
		t.Fatal(err)
	}
	if pvt2.Code != ledger.Valid {
		t.Fatalf("post-join setPrivate committed %v", pvt2.Code)
	}
	waitConverged(t, cl, height+1, append(members, "peer1.org1"))
	deadline := time.Now().Add(10 * time.Second)
	for {
		set, err := pc.FetchPrivateData(ctx, pvt2.TxID, "pdc1")
		if err != nil {
			t.Fatal(err)
		}
		if set != nil && len(set.Writes) == 1 && set.Writes[0].Key == "k2" && string(set.Writes[0].Value) == "43" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiner never reconciled the post-join private write: %+v", set)
		}
		time.Sleep(200 * time.Millisecond)
	}
	pc.Close()
	t.Logf("joined at base %d, height %d; pre-join private tx %s carried by state", info.Base, info.Height, pvt.TxID[:8])
}

// TestClusterTLS runs a whole cluster with pinned-key TLS between every
// process and commits one transaction through it.
func TestClusterTLS(t *testing.T) {
	cl := launchTestCluster(t, true)
	if !cl.TLS() {
		t.Fatal("cluster not running TLS")
	}
	gwc, err := cl.DialGateway()
	if err != nil {
		t.Fatal(err)
	}
	defer gwc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := gwc.Submit(ctx, service.NewInvoke("asset", "set", "color", "green").OnChannel(cl.Material.Channel))
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != ledger.Valid {
		t.Fatalf("commit over TLS: %v", res.Code)
	}
	waitConverged(t, cl, 1, nil)
}
