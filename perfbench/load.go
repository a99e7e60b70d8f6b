package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
)

type opKind int

const (
	opWrite opKind = iota
	opRead
	opDelete
)

func (k opKind) String() string {
	switch k {
	case opRead:
		return "read"
	case opDelete:
		return "delete"
	default:
		return "write"
	}
}

// op is one generated operation. Everything in it comes from the seed;
// the system under test receives only fn, args, transient and the
// endorser names.
type op struct {
	kind      opKind
	due       time.Duration // offset from the rung's start
	gw        int           // which client connection issues it
	fn        string
	args      []string
	transient map[string][]byte
	endorsers []string
	key       string
	value     string // written value (writes) or expected value (reads)
}

// outcome is the single terminal outcome of one op.
type outcome struct {
	done      bool
	due       time.Time
	end       time.Time
	late      time.Duration // how late the generator issued the op
	err       error
	committed bool // a commit status arrived (writes and deletes)
	code      ledger.ValidationCode
	txID      string
	payload   []byte // Evaluate result (reads)
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.due) }

// executor issues one op against the system and reports its outcome;
// the runner fills in the timing fields.
type executor func(ctx context.Context, o *op) outcome

// rungResult holds one rung's schedule and outcomes.
type rungResult struct {
	rate        float64
	ops         []op
	out         []outcome
	start       time.Time // due time of the first op
	end         time.Time // completion of the last op
	maxInFlight int64
}

// runner drives an open-loop schedule: each op is issued at its due
// time whether or not earlier ops have finished, and its latency runs
// from the due time, so a stall in the system shows as latency of every
// op due during it.
type runner struct {
	// sleepUntil blocks until t; tests substitute a late clock.
	sleepUntil func(t time.Time)
	// timeout bounds each op; an op still running then is an error.
	timeout time.Duration
}

func realSleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// run issues ops (sorted by due) at rate and waits until every one of
// them has ended.
func (r *runner) run(ctx context.Context, rate float64, ops []op, exec executor) *rungResult {
	res := &rungResult{rate: rate, ops: ops, out: make([]outcome, len(ops))}
	if len(ops) == 0 {
		return res
	}
	sleep := r.sleepUntil
	if sleep == nil {
		sleep = realSleepUntil
	}
	var inFlight, maxInFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	res.start = start.Add(ops[0].due)
	for i := range ops {
		due := start.Add(ops[i].due)
		sleep(due)
		late := time.Since(due)
		if late < 0 {
			late = 0
		}
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		wg.Add(1)
		go func(i int, due time.Time, late time.Duration) {
			defer wg.Done()
			octx, cancel := context.WithTimeout(ctx, r.timeout)
			o := exec(octx, &ops[i])
			cancel()
			o.end = time.Now()
			o.due, o.late, o.done = due, late, true
			res.out[i] = o
			inFlight.Add(-1)
		}(i, due, late)
	}
	wg.Wait()
	for i := range res.out {
		if res.out[i].end.After(res.end) {
			res.end = res.out[i].end
		}
	}
	res.maxInFlight = maxInFlight.Load()
	return res
}

// rungStats are the figures derived from one rung.
type rungStats struct {
	rate      float64
	attempted int
	errors    int
	committed int
	invalid   int
	commitMs  []float64 // due → commit status, writes and deletes
	readMs    []float64 // due → Evaluate result
	lateUs    []float64
	achieved  float64 // completed ops per second, first due → last end
	maxIn     int64
}

func (r *rungResult) stats() rungStats {
	s := rungStats{rate: r.rate, attempted: len(r.ops), maxIn: r.maxInFlight}
	completed := 0
	for i := range r.out {
		o := &r.out[i]
		s.lateUs = append(s.lateUs, us(o.late))
		if o.err != nil || !o.done {
			s.errors++
			continue
		}
		completed++
		switch r.ops[i].kind {
		case opRead:
			s.readMs = append(s.readMs, ms(o.latency()))
		default:
			s.committed++
			if o.code != ledger.Valid {
				s.invalid++
			}
			s.commitMs = append(s.commitMs, ms(o.latency()))
		}
	}
	if span := r.end.Sub(r.start); span > 0 {
		s.achieved = float64(completed) / span.Seconds()
	}
	return s
}
