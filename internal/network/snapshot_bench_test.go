package network

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/orderer"
	"repro/internal/peer"
)

// BenchmarkSnapshotJoin compares the two cold joins of a peer that
// missed the whole chain: genesis replay plus the reconcile drain of
// the private data it was never gossiped, against snapshot export plus
// install. The chain is 16 seeded private keys (so the snapshot carries
// private records and a purge schedule) followed by 200 public blocks
// of 2 transactions. Every joiner must end byte-identical to the
// source, and the snapshot join must be at least 5x faster.
//
//	go test -run '^$' -bench SnapshotJoin -benchtime 1x ./internal/network/
func BenchmarkSnapshotJoin(b *testing.B) {
	const (
		blocks, txsPerBlock, seeded = 200, 2, 16
		minSpeedup                  = 5.0
	)
	n := newSnapshotNet(b, txsPerBlock)
	cl := n.Gateway("org1")
	members := []*peer.Peer{n.Peer("org1"), n.Peer("org2")}
	for i := 0; i < seeded; i++ {
		// Each private write is its own block: the orderer cuts the
		// partial batch for the waiting submitter.
		if _, err := submitTx(cl, members, "asset", "setPrivate", []string{"k" + strconv.Itoa(i), "12"}, nil); err != nil {
			b.Fatalf("seed k%d: %v", i, err)
		}
	}
	for blk := 0; blk < blocks; blk++ {
		var txs []*ledger.Transaction
		for i := 0; i < txsPerBlock; i++ {
			prop, err := cl.NewProposal("asset", "set", []string{fmt.Sprintf("b%d-%d", blk, i), "v"}, nil)
			if err != nil {
				b.Fatal(err)
			}
			tx, _, err := endorseProp(cl, prop, n.Peers())
			if err != nil {
				b.Fatalf("endorse block %d tx %d: %v", blk, i, err)
			}
			txs = append(txs, tx)
		}
		// The block-cut threshold is txsPerBlock, so the pair is cut as
		// one full block.
		waits := make([]*orderer.Wait, 0, len(txs))
		for _, tx := range txs {
			waits = append(waits, n.Orderer.SubmitAsync(tx))
		}
		for _, w := range waits {
			if err := w.Wait(); err != nil {
				b.Fatalf("order block %d: %v", blk, err)
			}
		}
	}
	source := n.Peer("org2")
	if got, want := source.Ledger().Height(), uint64(seeded+blocks); got != want {
		b.Fatalf("source height %d, want %d", got, want)
	}
	wantHash := source.WorldState().StateHash()
	wantPurges := source.PvtStore().PendingPurges()
	if len(wantPurges) == 0 {
		b.Fatal("no purge schedule on the source despite BlockToLive")
	}

	var replay, snap time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		replayJoined, err := n.JoinPeer("org2", fmt.Sprintf("replay%d.org2", i), org2Setup(n))
		if err != nil {
			b.Fatal(err)
		}
		for tick := 0; len(replayJoined.Validator().Missing()) > 0; tick++ {
			if tick == 1000 {
				b.Fatalf("replay joiner still missing %d private entries", len(replayJoined.Validator().Missing()))
			}
			replayJoined.TickReconcile()
		}
		replay += time.Since(start)

		dir := filepath.Join(b.TempDir(), "snap")
		start = time.Now()
		if _, err := source.ExportSnapshot(dir); err != nil {
			b.Fatal(err)
		}
		snapJoined, err := n.JoinPeerFromSnapshot("org2", fmt.Sprintf("snap%d.org2", i), dir, source, org2Setup(n))
		if err != nil {
			b.Fatal(err)
		}
		snap += time.Since(start)

		for _, p := range []*peer.Peer{replayJoined, snapJoined} {
			if got := p.WorldState().StateHash(); !bytes.Equal(got, wantHash) {
				b.Fatalf("%s state hash differs from source:\n got %x\nwant %x", p.Name(), got, wantHash)
			}
			if got := p.PvtStore().PendingPurges(); !reflect.DeepEqual(got, wantPurges) {
				b.Fatalf("%s purge schedule differs from source:\n got %+v\nwant %+v", p.Name(), got, wantPurges)
			}
		}
	}
	b.StopTimer()

	speedup := float64(replay) / float64(snap)
	b.ReportMetric(float64(replay.Microseconds())/1e3/float64(b.N), "replay_ms")
	b.ReportMetric(float64(snap.Microseconds())/1e3/float64(b.N), "snapshot_ms")
	b.ReportMetric(speedup, "speedup")
	if speedup < minSpeedup {
		b.Fatalf("snapshot join only %.1fx faster than genesis replay, want >= %.0fx", speedup, minSpeedup)
	}
}
