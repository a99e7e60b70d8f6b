package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/deliver"
)

// TestBatchedStreamDeliversInOrder: events sent through SendBatch (in
// full and partial batches) arrive in order and intact.
func TestBatchedStreamDeliversInOrder(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		const events = 101 // 3 full batches of 32 + a remainder of 5
		s := startServer(t, ServerOptions{}, map[string]Handler{
			"count": func(ctx context.Context, _ Body, sink *Sink) (any, error) {
				if err := sink.Ack(); err != nil {
					return nil, err
				}
				batch := make([]event, 0, eventBatchMax)
				for i := 0; i < events; i++ {
					batch = append(batch, event{Status: &deliver.TxStatusEvent{
						BlockNum: uint64(i), TxID: fmt.Sprintf("tx-%d", i),
					}})
					if len(batch) == eventBatchMax {
						if err := sink.SendBatch(batch); err != nil {
							return nil, err
						}
						batch = batch[:0]
					}
				}
				return nil, sink.SendBatch(batch)
			},
		})
		c := dialT(t, s, ClientOptions{})
		stream, err := c.Stream(context.Background(), "count", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		next := uint64(0)
		for ev := range stream.Events() {
			se, ok := ev.(*deliver.TxStatusEvent)
			if !ok {
				t.Fatalf("unexpected event %T", ev)
			}
			if se.BlockNum != next || se.TxID != fmt.Sprintf("tx-%d", next) {
				t.Fatalf("got event (%d, %s), want %d", se.BlockNum, se.TxID, next)
			}
			next++
		}
		if next != events {
			t.Fatalf("received %d events, want %d", next, events)
		}
		if err := stream.Err(); err != nil {
			t.Fatalf("stream err: %v", err)
		}
	})
}

// TestSlowConsumerEvictedUnderBatches: a consumer that stops draining
// while the server floods multi-event frames must be evicted with
// ErrSlowConsumer, and the eviction's ftCancel must reach the server
// handler as a context cancellation.
func TestSlowConsumerEvictedUnderBatches(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		canceled := make(chan struct{})
		s := startServer(t, ServerOptions{}, map[string]Handler{
			"flood": func(ctx context.Context, _ Body, sink *Sink) (any, error) {
				if err := sink.Ack(); err != nil {
					return nil, err
				}
				var n uint64
				batch := make([]event, eventBatchMax)
				for {
					if ctx.Err() != nil {
						close(canceled)
						return nil, ctx.Err()
					}
					for i := range batch {
						batch[i] = event{Status: &deliver.TxStatusEvent{BlockNum: n}}
						n++
					}
					if err := sink.SendBatch(batch); err != nil {
						return nil, err
					}
				}
			},
		})
		c := dialT(t, s, ClientOptions{})
		stream, err := c.Stream(context.Background(), "flood", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		// Do not drain at all: the read loop fills the stream buffer,
		// the next push fails, and the client evicts the stream. Poll
		// Err until the eviction lands.
		deadline := time.Now().Add(10 * time.Second)
		for stream.Err() == nil {
			if time.Now().After(deadline) {
				t.Fatal("slow consumer never evicted")
			}
			time.Sleep(time.Millisecond)
		}
		if err := stream.Err(); !errors.Is(err, deliver.ErrSlowConsumer) {
			t.Fatalf("stream err = %v, want ErrSlowConsumer", err)
		}
		select {
		case <-canceled:
		case <-time.After(10 * time.Second):
			t.Fatal("server handler never observed the eviction's cancel")
		}
		// The buffered backlog still drains, in order, after eviction.
		next := uint64(0)
		for ev := range stream.Events() {
			se := ev.(*deliver.TxStatusEvent)
			if se.BlockNum != next {
				t.Fatalf("backlog out of order: got %d, want %d", se.BlockNum, next)
			}
			next++
		}
		if next == 0 {
			t.Fatal("no buffered events drained after eviction")
		}
	})
}

// TestCancelStopsBatchedStream: a client Close mid-flood (ftCancel)
// stops a stream that is emitting multi-event frames, and the abandoned
// batch frames already in flight are dropped cleanly.
func TestCancelStopsBatchedStream(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		// The second stream opened below is canceled at teardown too, so
		// only the first cancellation closes the channel.
		canceled := make(chan struct{})
		var cancelOnce sync.Once
		s := startServer(t, ServerOptions{}, map[string]Handler{
			"flood": func(ctx context.Context, _ Body, sink *Sink) (any, error) {
				if err := sink.Ack(); err != nil {
					return nil, err
				}
				var n uint64
				batch := make([]event, 8)
				for {
					if ctx.Err() != nil {
						cancelOnce.Do(func() { close(canceled) })
						return nil, ctx.Err()
					}
					for i := range batch {
						batch[i] = event{Block: &deliver.BlockEvent{Number: n}}
						n++
					}
					if err := sink.SendBatch(batch); err != nil {
						return nil, err
					}
					// Pace the flood just enough that a draining consumer
					// never overflows — this test is about cancel, not
					// eviction.
					time.Sleep(100 * time.Microsecond)
				}
			},
		})
		c := dialT(t, s, ClientOptions{})
		stream, err := c.Stream(context.Background(), "flood", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Drain continuously; hang up mid-flood once batches have flowed.
		enough := make(chan struct{})
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			seen := 0
			for range stream.Events() {
				if seen++; seen == 20 {
					close(enough)
				}
			}
		}()
		select {
		case <-enough:
		case <-time.After(10 * time.Second):
			t.Fatal("no events flowed")
		}
		stream.Close()
		<-drained
		select {
		case <-canceled:
		case <-time.After(10 * time.Second):
			t.Fatal("server handler not canceled by client Close")
		}
		if err := stream.Err(); err != nil {
			t.Fatalf("closed stream err = %v, want nil", err)
		}
		// The connection must remain usable for other traffic: batch
		// frames for the dead stream are dropped, not fatal.
		if _, err := c.Stream(context.Background(), "flood", nil); err != nil {
			t.Fatalf("connection unusable after cancel: %v", err)
		}
	})
}

// TestPooledBufferOwnershipStress hammers one connection with
// concurrent unary calls of varied payload sizes plus live batched
// streams. Run under -race (make check does), it verifies the explicit
// ownership hand-offs of pooled buffers across send queues, read loops
// and handler goroutines: any double-release or use-after-release shows
// up as corrupted echoes or a race report.
func TestPooledBufferOwnershipStress(t *testing.T) {
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"echo": func(_ context.Context, body Body, _ *Sink) (any, error) {
			var req orderRequest
			if err := body.Decode(&req); err != nil {
				return nil, err
			}
			return &evaluateResponse{Payload: req.Tx}, nil
		},
		"ticker": func(ctx context.Context, _ Body, sink *Sink) (any, error) {
			if err := sink.Ack(); err != nil {
				return nil, err
			}
			var n uint64
			batch := make([]event, 4)
			for ctx.Err() == nil {
				for i := range batch {
					batch[i] = event{Status: &deliver.TxStatusEvent{BlockNum: n, TxID: "t"}}
					n++
				}
				if err := sink.SendBatch(batch); err != nil {
					return nil, err
				}
			}
			return nil, ctx.Err()
		},
	})
	c := dialT(t, s, ClientOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	stream, err := c.Stream(ctx, "ticker", nil)
	if err != nil {
		t.Fatal(err)
	}
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		last := int64(-1)
		for ev := range stream.Events() {
			se := ev.(*deliver.TxStatusEvent)
			if int64(se.BlockNum) <= last {
				t.Errorf("stream went backwards: %d after %d", se.BlockNum, last)
				return
			}
			last = int64(se.BlockNum)
		}
	}()

	const workers = 16
	const callsPerWorker = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPerWorker; i++ {
				// Sizes straddle the pool's size classes, including
				// zero-length and just-past-a-class boundaries.
				size := (w*callsPerWorker + i) * 131 % (72 << 10)
				payload := bytes.Repeat([]byte{byte(w), byte(i)}, size/2)
				var out evaluateResponse
				if err := c.Call(context.Background(), "echo", &orderRequest{Tx: payload}, &out); err != nil {
					errs <- fmt.Errorf("worker %d call %d: %w", w, i, err)
					return
				}
				if !bytes.Equal(out.Payload, payload) {
					errs <- fmt.Errorf("worker %d call %d: echo corrupted (%d bytes in, %d out)", w, i, len(payload), len(out.Payload))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cancel()
	stream.Close()
	drained.Wait()
	c.Close()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
