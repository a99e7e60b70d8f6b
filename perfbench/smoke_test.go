package main

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/ledger"
)

func TestMain(m *testing.M) {
	// The wire-large smoke run re-executes the test binary to host its
	// roles.
	if dir := os.Getenv(hostEnv); dir != "" {
		if err := runHost(dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload for one scheduled second end to end,
// output checks included.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts networks and processes")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := run(workloads()[name], 7, 1, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, n := range []string{"max_tps", "peak_tps", "commit_p50_ms", "read_p50_ms",
				"cpu_ms_per_tx", "peak_rss_mb", "setup_s", "ok_frac", "valid_frac"} {
				if v := res.Metrics[n].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", n, v)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("starts networks")
	}
	res, err := run(workloads()["pdc"], 7, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("output checks failed")
	}
	for n := range layerUnits {
		if _, ok := res.Metrics[n]; !ok {
			t.Errorf("per-layer metric %s missing", n)
		}
	}
	for _, n := range []string{"endorser.endorse_us.p50", "gateway.evaluate_us.p50", "peer.commit_block_us.p50",
		"orderer.order_us.p50", "commit_p99_ms", "read_p99_ms", "self.gateway.submit_us.mean"} {
		if !(res.Metrics[n].Value > 0) {
			t.Errorf("%s = %v, want > 0 on pdc", n, res.Metrics[n].Value)
		}
	}
	if v := res.Metrics["deliver.subscribers.end"].Value; v != 0 {
		t.Errorf("deliver.subscribers.end = %v", v)
	}
}

func TestLeakCheckFindsPrivateValues(t *testing.T) {
	values := map[string]bool{"812345678901234567": true}
	clean := &ledger.Transaction{TxID: "t1", Proposal: &ledger.Proposal{Function: "delPrivate", Args: []string{"k", "0"}}}
	if got := privateLeaks(clean, values); len(got) != 0 {
		t.Errorf("clean tx leaks %v", got)
	}
	leaky := &ledger.Transaction{TxID: "t2", Proposal: &ledger.Proposal{Function: "setPrivate", Args: []string{"k", "812345678901234567"}}}
	if got := privateLeaks(leaky, values); len(got) == 0 {
		t.Error("a private value in the arguments went unnoticed")
	}
	prp := &ledger.ProposalResponsePayload{TxID: "t3", Response: ledger.Response{Payload: []byte("x812345678901234567")}}
	inPayload := &ledger.Transaction{TxID: "t3", ResponsePayload: prp.Bytes()}
	if got := privateLeaks(inPayload, values); len(got) == 0 {
		t.Error("a private value in the response payload went unnoticed")
	}
}

func TestReadCheckFailsOnWrongValue(t *testing.T) {
	r := &rungResult{
		ops: []op{{kind: opRead, key: "k", value: "want"}},
		out: []outcome{{done: true, payload: []byte("other")}},
	}
	c := &checker{}
	c.reads(r, func(o *op) (string, bool) { return o.value, true })
	if c.ok() {
		t.Error("a read returning the wrong value passed")
	}
}
