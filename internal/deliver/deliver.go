// Package deliver implements the peer-side delivery service: the push
// channel through which clients learn a transaction's fate. Real Fabric
// clients do not trust the orderer's return value — they watch the peer's
// block and commit-status event streams (Androulaki et al., §4.5), and
// the commit-notification path dominates observed client latency (Wang &
// Chu). This package reproduces that subsystem:
//
//   - every committed block is fanned out to subscribers as one BlockEvent
//     followed by one TxStatusEvent per transaction, in commit order;
//   - subscribers register from a start height and are caught up from the
//     peer's block store before going live (checkpointed replay), so a
//     consumer that remembers its last processed block observes every
//     block exactly once across peer restarts;
//   - per-subscriber buffers are bounded: a consumer that falls too far
//     behind is evicted (its stream closes with ErrSlowConsumer) rather
//     than blocking the commit path;
//   - deliver_* counters and histograms record stream health.
package deliver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
)

// DefaultBufferSize is the per-subscriber event bound when the
// configuration does not set one. A committed block contributes one block
// event plus one status event per transaction, so the default absorbs
// several hundred single-transaction blocks between reads.
const DefaultBufferSize = 1024

// ErrSlowConsumer marks a subscription evicted because its buffer
// overflowed: the consumer fell further behind the commit stream than the
// configured bound. Resubscribe from the last checkpoint to resume.
var ErrSlowConsumer = errors.New("deliver: subscriber evicted (buffer overflow)")

// ErrClosed is reported by a subscription closed by its consumer.
var ErrClosed = errors.New("deliver: subscription closed")

// Event is one item on a subscriber's stream: a *BlockEvent or a
// *TxStatusEvent. Events are shared between subscribers; consumers must
// not mutate them.
type Event interface {
	// BlockNumber is the committed block the event belongs to.
	BlockNumber() uint64
}

// EncCache memoizes an event's serialized form. Events fan out to
// every subscriber by pointer, and the wire transport would otherwise
// re-marshal the same event once per remote subscriber; caching the
// encoding mirrors ledger.Transaction.Bytes() — an event is immutable
// once published, so its serialization is fixed from the first encode
// on. Racing encoders may both run fn, but they produce identical
// bytes, so either result may win.
type EncCache struct {
	enc atomic.Pointer[[]byte]
}

// Encoded returns the cached serialization, computing and caching it
// with fn on first use. A nil result from fn is returned but never
// cached. Callers must not mutate the returned bytes.
func (c *EncCache) Encoded(fn func() []byte) []byte {
	if p := c.enc.Load(); p != nil {
		return *p
	}
	b := fn()
	if b == nil {
		return nil
	}
	c.enc.Store(&b)
	return b
}

// BlockEvent announces one committed block. It precedes the block's
// per-transaction status events on the stream.
type BlockEvent struct {
	EncCache `json:"-"`

	Number uint64
	Block  *ledger.Block
	// Replayed marks events synthesized from the block store during
	// subscriber catch-up, as opposed to received live at commit time.
	Replayed bool
}

// BlockNumber implements Event.
func (e *BlockEvent) BlockNumber() uint64 { return e.Number }

// TxStatusEvent reports the final validation outcome of one transaction:
// the commit notification clients wait on.
type TxStatusEvent struct {
	EncCache `json:"-"`

	BlockNum uint64
	TxIndex  int
	TxID     string
	// Code is the validation flag the committing peer recorded.
	Code ledger.ValidationCode
	// Detail explains non-VALID codes in words (MVCC conflict, policy
	// failure, ...).
	Detail string
	// MissingCollections lists collections for which this peer is a
	// member but had not obtained the original private data at commit
	// time — the missing-private-data marker the reconciler works from.
	MissingCollections []string
	// ChaincodeEvent is the application event of a VALID transaction,
	// if one was emitted.
	ChaincodeEvent *ledger.ChaincodeEvent
	// Replayed marks events synthesized during subscriber catch-up.
	Replayed bool
}

// BlockNumber implements Event.
func (e *TxStatusEvent) BlockNumber() uint64 { return e.BlockNum }

// Detail strings for the validation codes.
func detailFor(code ledger.ValidationCode) string {
	switch code {
	case ledger.Valid:
		return ""
	case ledger.EndorsementPolicyFailure:
		return "endorsement policy unsatisfied by the verified signers"
	case ledger.MVCCConflict:
		return "a read version (or range) no longer matches the world state"
	case ledger.BadPayload:
		return "transaction payload failed to parse"
	case ledger.BadSignature:
		return "an endorsement signature failed verification"
	case ledger.DuplicateTxID:
		return "transaction ID already committed (replay)"
	default:
		return code.String()
	}
}

// Source is the committed chain the service replays catch-up from — in a
// peer, its ledger.BlockStore.
type Source interface {
	Height() uint64
	Block(number uint64) (*ledger.Block, error)
}

// Config wires a Service.
type Config struct {
	// Source is the peer's committed block store.
	Source Source
	// Missing, when non-nil, resolves a transaction's
	// missing-private-data collections for status events.
	Missing func(txID string) []string
	// BufferSize bounds each subscriber's event buffer; 0 selects
	// DefaultBufferSize.
	BufferSize int
	// Metrics, when non-nil, receives the deliver_* counters.
	Metrics *metrics.Counters
	// Timings, when non-nil, receives the deliver_publish histogram.
	Timings *metrics.Timings
}

// Service is one peer's delivery service.
type Service struct {
	cfg Config

	mu     sync.Mutex
	height uint64 // next block number to be published live
	subs   map[uint64]*Subscription
	nextID uint64
}

// New creates a delivery service over a committed chain. Blocks already
// in the source count as published: subscribers reach them via replay.
func New(cfg Config) *Service {
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = DefaultBufferSize
	}
	s := &Service{cfg: cfg, subs: make(map[uint64]*Subscription)}
	if cfg.Source != nil {
		s.height = cfg.Source.Height()
	}
	return s
}

// Height returns the stream position: the number of blocks published (or
// replayable) so far.
func (s *Service) Height() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncHeightLocked()
	return s.height
}

// syncHeightLocked folds blocks that reached the store without a live
// publish (restart replay) into the published prefix, so they are served
// by catch-up instead of awaited forever.
func (s *Service) syncHeightLocked() {
	if s.cfg.Source == nil {
		return
	}
	if h := s.cfg.Source.Height(); h > s.height {
		s.height = h
	}
}

// eventsFor renders one committed block into its stream events.
func (s *Service) eventsFor(b *ledger.Block, replayed bool) []Event {
	events := make([]Event, 0, 1+len(b.Transactions))
	events = append(events, &BlockEvent{Number: b.Header.Number, Block: b, Replayed: replayed})
	for i, tx := range b.Transactions {
		code := b.Metadata.ValidationFlags[i]
		st := &TxStatusEvent{
			BlockNum: b.Header.Number,
			TxIndex:  i,
			TxID:     tx.TxID,
			Code:     code,
			Detail:   detailFor(code),
			Replayed: replayed,
		}
		if s.cfg.Missing != nil {
			st.MissingCollections = s.cfg.Missing(tx.TxID)
		}
		if code == ledger.Valid {
			if prp, err := tx.ResponsePayloadParsed(); err == nil {
				st.ChaincodeEvent = prp.Event
			}
		}
		events = append(events, st)
	}
	return events
}

// Publish fans a freshly committed block out to every live subscriber.
// The committing peer calls this once per block, in commit order, after
// the block (with its validation flags) reached the block store.
func (s *Service) Publish(b *ledger.Block) {
	start := time.Now()
	events := s.eventsFor(b, false)

	s.mu.Lock()
	defer s.mu.Unlock()
	if next := b.Header.Number + 1; next > s.height {
		s.height = next
	}
	s.inc(metrics.DeliverBlocks, 1)
	s.inc(metrics.DeliverStatuses, uint64(len(b.Transactions)))
	for id, sub := range s.subs {
		if sub.next > b.Header.Number {
			continue // already served by catch-up replay
		}
		if sub.next < b.Header.Number {
			// The subscriber missed intermediate publishes (hand-driven
			// commits can race); fill the gap from the store.
			if !s.replayGapLocked(sub, b.Header.Number) {
				s.evictLocked(id, sub)
				continue
			}
		}
		if !s.sendLocked(sub, events) {
			s.evictLocked(id, sub)
			continue
		}
		sub.next = b.Header.Number + 1
	}
	if s.cfg.Timings != nil {
		s.cfg.Timings.Observe(metrics.DeliverPublish, time.Since(start))
	}
}

// replayGapLocked pushes blocks [sub.next, upto) from the store into the
// subscription, reporting false when the buffer cannot hold them.
func (s *Service) replayGapLocked(sub *Subscription, upto uint64) bool {
	for n := sub.next; n < upto; n++ {
		b, err := s.cfg.Source.Block(n)
		if err != nil {
			return false
		}
		if !s.sendLocked(sub, s.eventsFor(b, true)) {
			return false
		}
		sub.next = n + 1
		s.inc(metrics.DeliverReplayedBlocks, 1)
	}
	return true
}

// sendLocked enqueues events without blocking; false means overflow.
func (s *Service) sendLocked(sub *Subscription, events []Event) bool {
	for _, ev := range events {
		select {
		case sub.ch <- ev:
		default:
			return false
		}
	}
	return true
}

func (s *Service) evictLocked(id uint64, sub *Subscription) {
	delete(s.subs, id)
	sub.err = ErrSlowConsumer
	close(sub.ch)
	s.inc(metrics.DeliverEvictedSlow, 1)
}

func (s *Service) inc(name string, delta uint64) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Add(name, delta)
	}
}

// replayChunk is how many blocks Subscribe reads per lock window while
// catching a subscriber up. The bulk of a long replay — a cold peer
// joining 10k blocks behind — runs off the service lock (the block
// store has its own synchronization), so concurrent Publish calls never
// stall behind it; only the final stretch is replayed under the lock,
// atomically with registration.
const replayChunk = 64

// Subscribe registers a consumer from a start height. Blocks [from,
// current) are replayed from the block store into the subscription before
// it goes live, atomically with registration, so no block is dropped or
// duplicated between catch-up and live delivery — the checkpointed-replay
// contract: feed Subscribe the checkpoint's next height after a restart
// and the stream resumes exactly once per block. Long replays are
// chunked: the lock is held only for the last replayChunk blocks, so
// the commit path keeps publishing while a subscriber catches up.
func (s *Service) Subscribe(from uint64) (*Subscription, error) {
	var backlog []Event
	next := from
	for {
		s.mu.Lock()
		s.syncHeightLocked()
		height := s.height
		if next >= height || height-next <= replayChunk {
			// Final stretch: replay the remainder under the lock and
			// register atomically, so nothing commits in between.
			for n := next; n < height; n++ {
				b, err := s.cfg.Source.Block(n)
				if err != nil {
					s.mu.Unlock()
					return nil, fmt.Errorf("deliver: replay block %d: %w", n, err)
				}
				backlog = append(backlog, s.eventsFor(b, true)...)
				s.inc(metrics.DeliverReplayedBlocks, 1)
			}

			// The buffer always leaves BufferSize headroom for live events
			// on top of whatever the catch-up replay enqueued.
			sub := &Subscription{
				svc:  s,
				id:   s.nextID,
				ch:   make(chan Event, len(backlog)+s.cfg.BufferSize),
				next: height,
			}
			if from > height {
				sub.next = from
			}
			for _, ev := range backlog {
				sub.ch <- ev
			}
			s.subs[sub.id] = sub
			s.nextID++
			s.inc(metrics.DeliverSubscriptions, 1)
			s.mu.Unlock()
			return sub, nil
		}
		s.mu.Unlock()

		// Bulk catch-up off the lock: these blocks are already committed
		// and immutable, so reading them can race nothing.
		upto := next + replayChunk
		for n := next; n < upto; n++ {
			b, err := s.cfg.Source.Block(n)
			if err != nil {
				return nil, fmt.Errorf("deliver: replay block %d: %w", n, err)
			}
			backlog = append(backlog, s.eventsFor(b, true)...)
			s.inc(metrics.DeliverReplayedBlocks, 1)
		}
		next = upto
	}
}

// SubscribeLive registers a consumer at the current stream position,
// atomically, with no catch-up: the first event is the next committed
// block. Commit-waiters subscribe this way before ordering a transaction
// so its status event cannot be missed.
func (s *Service) SubscribeLive() *Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncHeightLocked()
	sub := &Subscription{
		svc:  s,
		id:   s.nextID,
		ch:   make(chan Event, s.cfg.BufferSize),
		next: s.height,
	}
	s.subs[sub.id] = sub
	s.nextID++
	s.inc(metrics.DeliverSubscriptions, 1)
	return sub
}

// SubscriberCount returns the number of live subscriptions. Leak tests
// use it to assert that abandoned commit handles release their streams.
func (s *Service) SubscriberCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Subscription is one consumer's bounded event stream.
type Subscription struct {
	svc *Service
	id  uint64
	ch  chan Event

	// next is the block number this subscription expects next; guarded
	// by svc.mu.
	next uint64
	// err is set when the service evicts the subscription or the
	// consumer closes it; guarded by svc.mu.
	err error
}

// Events exposes the stream for select-based consumers. The channel
// closes when the subscription is evicted or closed; check Err to
// distinguish.
func (sub *Subscription) Events() <-chan Event { return sub.ch }

// Err reports why the stream ended: ErrSlowConsumer after an eviction,
// ErrClosed after Close, nil while live.
func (sub *Subscription) Err() error {
	sub.svc.mu.Lock()
	defer sub.svc.mu.Unlock()
	return sub.err
}

// Close detaches the subscription from the service and closes the
// stream. Safe to call twice.
func (sub *Subscription) Close() {
	sub.svc.mu.Lock()
	defer sub.svc.mu.Unlock()
	if sub.err != nil {
		return
	}
	delete(sub.svc.subs, sub.id)
	sub.err = ErrClosed
	close(sub.ch)
}

// Recv returns the next event, honoring the context.
func (sub *Subscription) Recv(ctx context.Context) (Event, error) {
	select {
	case ev, ok := <-sub.ch:
		if !ok {
			return nil, sub.Err()
		}
		return ev, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryTxStatus drains buffered events without blocking and returns the
// status event of txID if it is already in the buffer.
func (sub *Subscription) TryTxStatus(txID string) *TxStatusEvent {
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				return nil
			}
			if st, isStatus := ev.(*TxStatusEvent); isStatus && st.TxID == txID {
				return st
			}
		default:
			return nil
		}
	}
}

// WaitTxStatus consumes the stream until the status event of txID
// arrives, the stream ends, or the context expires. Events for other
// transactions are discarded — commit-waiters hold a dedicated
// subscription.
func (sub *Subscription) WaitTxStatus(ctx context.Context, txID string) (*TxStatusEvent, error) {
	for {
		ev, err := sub.Recv(ctx)
		if err != nil {
			return nil, err
		}
		if st, isStatus := ev.(*TxStatusEvent); isStatus && st.TxID == txID {
			return st, nil
		}
	}
}

// Checkpoint tracks the next block a consumer needs, the durable cursor
// of the checkpointed-replay contract: Observe every processed event,
// persist Next across restarts, and resubscribe from Next.
type Checkpoint struct {
	mu   sync.Mutex
	next uint64
}

// NewCheckpoint starts a cursor at the given height.
func NewCheckpoint(next uint64) *Checkpoint { return &Checkpoint{next: next} }

// Observe advances the cursor past a processed block.
func (c *Checkpoint) Observe(blockNum uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if blockNum+1 > c.next {
		c.next = blockNum + 1
	}
}

// Next returns the height to resume from.
func (c *Checkpoint) Next() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next
}
