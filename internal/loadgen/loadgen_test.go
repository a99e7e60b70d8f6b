package loadgen

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

func testConfig() Config {
	return Config{Clients: 4, BatchSize: 16, Seed: 21}
}

// TestRunAllMixes drives a short closed-loop run of every workload mix
// and checks the bookkeeping: all scheduled transactions complete, the
// latency quantiles are populated and ordered, and achieved throughput
// is positive.
func TestRunAllMixes(t *testing.T) {
	for _, mix := range Mixes {
		mix := mix
		t.Run(mix, func(t *testing.T) {
			h, err := NewHarness(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()

			opts := RunOptions{Mix: mix, TxPerClient: 8}
			if mix == MixLarge {
				opts.ValueBytes = 2048 // keep the short run cheap
			}
			pt, err := h.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := 4 * 8
			// MixConflict submissions can exhaust the mismatch retry budget
			// under pathological interleavings; the bookkeeping must still
			// account for every scheduled transaction.
			if pt.Completed+pt.Dropped != want {
				t.Fatalf("completed+dropped = %d, want %d", pt.Completed+pt.Dropped, want)
			}
			if pt.Completed == 0 {
				t.Fatal("nothing completed")
			}
			if pt.Achieved <= 0 {
				t.Fatalf("achieved_tps = %f, want > 0", pt.Achieved)
			}
			if pt.P50 <= 0 || pt.P95 < pt.P50 || pt.P99 < pt.P95 {
				t.Fatalf("quantiles out of order: p50=%v p95=%v p99=%v", pt.P50, pt.P95, pt.P99)
			}
			if mix == MixConflict && pt.Invalid == 0 {
				t.Log("conflict mix saw no MVCC conflicts in a short run (ok, but unusual)")
			}
		})
	}
}

// TestRunPacedRate: a paced run at a modest rate must not take much less
// wall-clock time than the schedule dictates — proof the token pacing is
// actually spacing submissions out.
func TestRunPacedRate(t *testing.T) {
	h, err := NewHarness(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// 4 clients x 6 tx at 40 tx/s aggregate = at least ~500ms of schedule
	// (each client's 6th submission fires at 5 intervals of 100ms).
	start := time.Now()
	pt, err := h.Run(RunOptions{Mix: MixZipf, TxPerClient: 6, Rate: 40})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Fatalf("paced run finished in %v, schedule dictates >= ~500ms", elapsed)
	}
	if pt.Completed != 24 {
		t.Fatalf("completed = %d, want 24", pt.Completed)
	}
}

// TestDuplicateProbesRejected: every duplicate probe's second submission
// must be rejected DUPLICATE_TXID, and the peers' dedup caches must show
// the hits in Metrics().
func TestDuplicateProbesRejected(t *testing.T) {
	h, err := NewHarness(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pt, err := h.Run(RunOptions{Mix: MixZipf, TxPerClient: 8, DuplicateEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pt.DupProbes == 0 {
		t.Fatal("no duplicate probes ran")
	}
	if pt.DupRejected != pt.DupProbes {
		t.Fatalf("dup_rejected = %d, want %d (all probes)", pt.DupRejected, pt.DupProbes)
	}
	var hits uint64
	for _, org := range h.net.Orgs() {
		hits += h.net.Peer(org).Metrics()[metrics.DedupHits]
	}
	if hits == 0 {
		t.Fatal("peer metrics show no dedup cache hits after duplicate submissions")
	}
}

// TestAbandonedHandlesDoNotLeak: handles closed without Status must
// release their deliver subscriptions — after the run every commit
// peer's live-subscriber count returns to zero.
func TestAbandonedHandlesDoNotLeak(t *testing.T) {
	h, err := NewHarness(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pt, err := h.Run(RunOptions{Mix: MixZipf, TxPerClient: 9, AbandonEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Abandoned == 0 {
		t.Fatal("no handles were abandoned")
	}
	// Abandoned handles cost nothing by themselves — each client gateway
	// holds exactly one shared commit-status subscription while open,
	// and closing the harness releases them all.
	net := h.net
	total := 0
	for _, org := range net.Orgs() {
		total += net.Peer(org).Deliver().SubscriberCount()
	}
	if total > h.cfg.Clients {
		t.Fatalf("%d live deliver subscriptions across peers, want at most one per client (%d)", total, h.cfg.Clients)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	for _, org := range net.Orgs() {
		if n := net.Peer(org).Deliver().SubscriberCount(); n != 0 {
			t.Fatalf("%s: %d live deliver subscriptions leaked after Close", org, n)
		}
	}
}

// TestMechanismsReportNoLeakedSubscriptions: the mechanisms run's
// leaked_subscriptions counts only streams that outlive their gateway,
// not the one shared commit-status stream each open gateway holds.
func TestMechanismsReportNoLeakedSubscriptions(t *testing.T) {
	m, err := MeasureMechanisms(testConfig(), 7, 400)
	if err != nil {
		t.Fatal(err)
	}
	if m.Abandoned == 0 {
		t.Fatal("no handles were abandoned")
	}
	if m.LeakedSubscriptions != 0 {
		t.Fatalf("leaked_subscriptions = %d, want 0", m.LeakedSubscriptions)
	}
}

// TestAdmissionShedsUnderPressure: with per-client admission far below
// the unpaced submission rate, the run must shed (and clients retry);
// every scheduled transaction still completes or is counted dropped.
func TestAdmissionShedsUnderPressure(t *testing.T) {
	h, err := NewHarness(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pt, err := h.Run(RunOptions{
		Mix:            MixZipf,
		TxPerClient:    6,
		AdmissionRate:  20, // tokens/s per client; unpaced clients exceed this
		AdmissionBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Shed == 0 {
		t.Fatal("admission control shed nothing under an unpaced fleet")
	}
	if got := pt.Completed + pt.Dropped; got != 24 {
		t.Fatalf("completed+dropped = %d, want 24", got)
	}
	if h.counters.Get(metrics.GatewayShed) == 0 {
		t.Fatal("gateway_shed counter did not move")
	}
	// The bucket must be disarmed again after the run.
	pt2, err := h.Run(RunOptions{Mix: MixZipf, TxPerClient: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pt2.Shed != 0 {
		t.Fatalf("admission still armed after run: shed=%d", pt2.Shed)
	}
}

// TestSweepOnKnee: sweeping one mix over an absurdly high offered rate
// relative to a deliberately slowed fixture is not robust in CI, so this
// only checks the sweep plumbing — points come back in order with the
// requested rates and the unpaced ceiling is measured.
func TestSweepOn(t *testing.T) {
	h, err := NewHarness(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	rates := []float64{20, 40}
	sw, err := SweepOn(h, RunOptions{Mix: MixConflict, TxPerClient: 4}, rates)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Mix != MixConflict {
		t.Fatalf("sweep mix = %q", sw.Mix)
	}
	if len(sw.Points) != len(rates) {
		t.Fatalf("points = %d, want %d", len(sw.Points), len(rates))
	}
	for i, p := range sw.Points {
		if p.OfferedTPS != rates[i] {
			t.Fatalf("point %d offered = %f, want %f", i, p.OfferedTPS, rates[i])
		}
		if p.Completed+p.Dropped != 16 {
			t.Fatalf("point %d completed+dropped = %d, want 16", i, p.Completed+p.Dropped)
		}
	}
	if sw.UnpacedTPS <= 0 {
		t.Fatal("unpaced ceiling not measured")
	}
}

func TestQuantiles(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 100; i++ {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	p50, p95, p99 := quantiles(samples)
	if p50 != 50*time.Millisecond || p95 != 95*time.Millisecond || p99 != 99*time.Millisecond {
		t.Fatalf("quantiles = %v %v %v", p50, p95, p99)
	}
	if a, b, c := quantiles(nil); a != 0 || b != 0 || c != 0 {
		t.Fatal("empty-sample quantiles non-zero")
	}
	one := []time.Duration{7 * time.Millisecond}
	if a, _, c := quantiles(one); a != 7*time.Millisecond || c != 7*time.Millisecond {
		t.Fatal("single-sample quantiles wrong")
	}
}
