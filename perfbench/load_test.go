package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// slowSystem serves one op at a time, each taking service: a system
// whose capacity is 1/service ops per second.
type slowSystem struct {
	mu      sync.Mutex
	service time.Duration
}

func (s *slowSystem) exec(ctx context.Context, o *op) outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(s.service)
	return outcome{committed: true}
}

func TestLatencyRunsFromDueTimeUnderBacklog(t *testing.T) {
	// 40 ops at 400/s against a 100/s system: op i is due at 2.5ms·i but
	// served at about 10ms·(i+1), so its latency grows by 7.5ms per op.
	// Timing from issue instead of due time would hide that backlog.
	sys := &slowSystem{service: 10 * time.Millisecond}
	ops := schedule(make([]op, 40), 400)
	r := (&runner{timeout: 10 * time.Second}).run(context.Background(), 400, ops, sys.exec)
	s := r.stats()
	if s.attempted != 40 || s.errors != 0 || len(s.commitMs) != 40 {
		t.Fatalf("stats = %+v", s)
	}
	last := ms(r.out[39].latency())
	if last < 0.9*(400-97.5) {
		t.Errorf("last op latency %.1fms, want about %.1fms of queueing", last, 400-97.5)
	}
	if s.maxIn < 20 {
		t.Errorf("max in flight %d, want the backlog to build up", s.maxIn)
	}
	if s.achieved > 110 {
		t.Errorf("achieved %.1f ops/s from a 100 ops/s system", s.achieved)
	}
	// A generator that waited for the system would issue the last op
	// about 300ms late; scheduling noise on a busy host is far less.
	if late := quantile(s.lateUs, 1); late > 100e3 {
		t.Errorf("an op was issued %.0fus late: the generator must not wait for the system", late)
	}
}

func TestGeneratorLatenessIsCounted(t *testing.T) {
	// A generator that wakes 3ms after each due time issues every op
	// late; the lateness is recorded and counted in the latency.
	const lag = 3 * time.Millisecond
	rn := &runner{timeout: time.Second, sleepUntil: func(t time.Time) { realSleepUntil(t.Add(lag)) }}
	ops := schedule(make([]op, 20), 200)
	r := rn.run(context.Background(), 200, ops, func(context.Context, *op) outcome { return outcome{committed: true} })
	for i := range r.out {
		o := &r.out[i]
		if o.late < lag {
			t.Errorf("op %d: lateness %v, want at least %v", i, o.late, lag)
		}
		if o.latency() < o.late {
			t.Errorf("op %d: latency %v shorter than its lateness %v", i, o.latency(), o.late)
		}
	}
	if s := r.stats(); quantile(s.lateUs, 0.5) < us(lag) {
		t.Errorf("median lateness %.0fus, want at least %.0fus", quantile(s.lateUs, 0.5), us(lag))
	}
}

func TestTimedOutOpIsAnError(t *testing.T) {
	rn := &runner{timeout: 20 * time.Millisecond}
	ops := schedule(make([]op, 3), 100)
	r := rn.run(context.Background(), 100, ops, func(ctx context.Context, _ *op) outcome {
		<-ctx.Done()
		return outcome{err: ctx.Err()}
	})
	if s := r.stats(); s.errors != 3 || s.committed != 0 {
		t.Errorf("stats = %+v, want 3 errors", s)
	}
}
