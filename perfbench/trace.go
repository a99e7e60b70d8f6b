package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one transaction
// share its TxID as trace; a block's commit spans use "block-<n>".
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Rung   int    `json:"rung"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run pays only a nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	rung  atomic.Int64

	mu    sync.Mutex
	spans []span
	// status maps a TxID to its open gateway.status span, the parent of
	// the orderer flush the status wait requests.
	status sync.Map
	// committed maps a TxID to when its commit peer reported it.
	committed sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id and start.
func (t *tracer) begin() (uint64, int64) { return t.ids.Add(1), t.now() }

// end closes a span opened by begin.
func (t *tracer) end(id, parent uint64, start int64, name, trace, node string) {
	s := span{ID: id, Parent: parent, Trace: trace, Name: name, Node: node,
		Rung: int(t.rung.Load()), Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Concurrent children (the
// endorsement fan-out) are merged before subtracting, so overlapping
// children are not counted twice.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range kids {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for j, v := range ivs {
			if j == 0 || v.lo > curHi {
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		covered += curHi - curLo
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanTable summarizes spans by name: count, duration and self-time
// quantiles in microseconds.
type spanRow struct {
	name               string
	n                  int
	p50, p99, selfMean float64
}

func spanTable(spans []span) []spanRow {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for i := range spans {
		s := &spans[i]
		durs[s.Name] = append(durs[s.Name], us(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], us(self[s.ID]))
	}
	var rows []spanRow
	for name, d := range durs {
		rows = append(rows, spanRow{name: name, n: len(d),
			p50: quantile(d, 0.5), p99: quantile(d, 0.99), selfMean: mean(selfs[name])})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].name < rows[b].name })
	return rows
}

func (r spanRow) String() string {
	return fmt.Sprintf("%-20s n=%-7d p50=%9.1fus p99=%9.1fus self.mean=%9.1fus", r.name, r.n, r.p50, r.p99, r.selfMean)
}
