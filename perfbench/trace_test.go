package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "gateway.submit", Start: 0, End: 100},
		// Two overlapping endorsements [10,40) ∪ [20,50) cover 40.
		{ID: 2, Parent: 1, Name: "endorser.endorse", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "endorser.endorse", Start: 20, End: 50},
		// The order call [60,90) covers 30, with a grandchild inside.
		{ID: 4, Parent: 1, Name: "orderer.order", Start: 60, End: 90},
		{ID: 5, Parent: 4, Name: "raft", Start: 70, End: 80},
		// A child running past its parent's end counts only inside it.
		{ID: 6, Name: "gateway.status", Start: 200, End: 300},
		{ID: 7, Parent: 6, Name: "gateway.notify", Start: 250, End: 350},
	}
	got := selfTimes(spans)
	want := map[uint64]time.Duration{1: 30, 2: 30, 3: 30, 4: 20, 5: 10, 6: 50, 7: 100}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestFillTracesNamesEvaluateRoots(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "gateway.evaluate"},
		{ID: 2, Parent: 1, Name: "endorser.endorse", Trace: "tx1"},
	}
	fillTraces(spans)
	if spans[0].Trace != "tx1" {
		t.Errorf("root trace = %q, want tx1", spans[0].Trace)
	}
}
