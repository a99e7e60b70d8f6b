package perf

import (
	"fmt"

	"repro/internal/ledger"
)

// pipelineTarget is the peer whose validation pipeline the block
// benchmarks drive. org3 never endorses in this harness, so its world
// state advances only through the measured commits.
const pipelineTarget = "org3"

// EndorseTxs endorses n public write-only transactions against the
// member peers (keys unique per (run, i) so blocks never conflict) and
// returns them ready for block assembly.
func (h *Harness) EndorseTxs(run, n int) ([]*ledger.Transaction, error) {
	txs := make([]*ledger.Transaction, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("blk%d-%d", run, i)
		tx, err := h.h.endorse("set", []string{key, "v"})
		if err != nil {
			return nil, fmt.Errorf("perf: endorse block tx %s: %w", key, err)
		}
		txs = append(txs, tx)
	}
	return txs, nil
}

// EndorseReadWriteTxs endorses n public read-write transactions (the
// asset contract's "add" function: GetState + PutState on the same key),
// so each transaction carries a non-empty public read set and the
// validator's MVCC version check does real work. Keys are unique per
// (run, i) so blocks never conflict.
func (h *Harness) EndorseReadWriteTxs(run, n int) ([]*ledger.Transaction, error) {
	txs := make([]*ledger.Transaction, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("rw%d-%d", run, i)
		tx, err := h.h.endorse("add", []string{key, "1"})
		if err != nil {
			return nil, fmt.Errorf("perf: endorse read-write tx %s: %w", key, err)
		}
		txs = append(txs, tx)
	}
	return txs, nil
}

// BuildBlock assembles the transactions into the next block of the
// pipeline target peer's chain.
func (h *Harness) BuildBlock(txs []*ledger.Transaction) *ledger.Block {
	chain := h.h.net.Peer(pipelineTarget).Ledger()
	return ledger.NewBlock(chain.Height(), chain.LastHash(), txs)
}

// CommitBlock runs the validation pipeline (validate + commit + append)
// on the pipeline target peer.
func (h *Harness) CommitBlock(block *ledger.Block) error {
	return h.h.net.Peer(pipelineTarget).CommitBlock(block)
}

// FlushVerifyCache drops the pipeline target peer's memoized endorsement
// verifications, so a measurement starts from the uncached path.
func (h *Harness) FlushVerifyCache() {
	h.h.net.Peer(pipelineTarget).Validator().FlushVerifyCache()
}
