package loadgen

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
)

// PointJSON is the committed-artifact form of one sweep point
// (durations in fractional milliseconds).
type PointJSON struct {
	OfferedTPS  float64 `json:"offered_tps"`
	AchievedTPS float64 `json:"achieved_tps"`
	Completed   int     `json:"completed"`
	Invalid     int     `json:"invalid"`
	Shed        uint64  `json:"shed"`
	Dropped     int     `json:"dropped"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	Knee        bool    `json:"knee,omitempty"`
}

// JSON converts the point to its committed-artifact form; other
// scenarios (the wire benchmark) embed it in their own artifacts.
func (p Point) JSON() PointJSON { return toJSON(p) }

func toJSON(p Point) PointJSON {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return PointJSON{
		OfferedTPS:  p.Offered,
		AchievedTPS: p.Achieved,
		Completed:   p.Completed,
		Invalid:     p.Invalid,
		Shed:        p.Shed,
		Dropped:     p.Dropped,
		P50Ms:       ms(p.P50),
		P95Ms:       ms(p.P95),
		P99Ms:       ms(p.P99),
		Knee:        p.Knee,
	}
}

// kneeFraction: a point whose achieved rate falls below this fraction of
// the offered rate marks the knee — the backlog is growing faster than
// the system drains it.
const kneeFraction = 0.9

// MixSweep is the arrival-rate trajectory of one workload mix.
type MixSweep struct {
	Mix    string      `json:"mix"`
	Points []PointJSON `json:"points"`
	// KneeTPS is the offered rate of the first point past the knee; 0
	// when the sweep never saturated.
	KneeTPS float64 `json:"knee_tps,omitempty"`
	// UnpacedTPS is the pure closed-loop ceiling measured after the
	// sweep (rate 0: every client submits back-to-back).
	UnpacedTPS float64 `json:"unpaced_tps"`
}

// Sweep runs one mix across ascending offered rates on a single warm
// harness, then measures the unpaced closed-loop ceiling. The knee is
// the first rate whose achieved throughput drops below kneeFraction of
// offered.
func Sweep(cfg Config, base RunOptions, rates []float64) (MixSweep, error) {
	h, err := NewHarness(cfg)
	if err != nil {
		return MixSweep{}, err
	}
	defer h.Close()
	return SweepOn(h, base, rates)
}

// SweepOn is Sweep against a caller-owned harness.
func SweepOn(h *Harness, base RunOptions, rates []float64) (MixSweep, error) {
	out := MixSweep{Mix: base.withDefaults().Mix}
	for _, rate := range rates {
		opts := base
		opts.Rate = rate
		pt, err := h.Run(opts)
		if err != nil {
			return MixSweep{}, fmt.Errorf("loadgen: sweep %s @ %.0f tx/s: %w", out.Mix, rate, err)
		}
		if out.KneeTPS == 0 && rate > 0 && pt.Achieved < kneeFraction*rate {
			pt.Knee = true
			out.KneeTPS = rate
		}
		out.Points = append(out.Points, toJSON(pt))
	}
	unpaced := base
	unpaced.Rate = 0
	pt, err := h.Run(unpaced)
	if err != nil {
		return MixSweep{}, fmt.Errorf("loadgen: unpaced %s: %w", out.Mix, err)
	}
	out.UnpacedTPS = pt.Achieved
	return out, nil
}

// Mechanisms reports the overload/duplicate machinery exercised by a
// dedicated run: admission shedding, abandoned-handle cleanup and
// dedup-cache rejections, with the relevant server-side counters.
type Mechanisms struct {
	// Run parameters.
	OfferedTPS         float64 `json:"offered_tps"`
	AdmissionPerClient float64 `json:"admission_per_client_tps"`

	Completed   int    `json:"completed"`
	Shed        uint64 `json:"shed"`
	Dropped     int    `json:"dropped"`
	Abandoned   int    `json:"abandoned"`
	DupProbes   int    `json:"dup_probes"`
	DupRejected int    `json:"dup_rejected"`

	// Server-side counters after the run.
	GatewayAdmitted      uint64 `json:"gateway_admitted"`
	GatewayShed          uint64 `json:"gateway_shed"`
	GatewayFlushes       uint64 `json:"gateway_flushes"`
	OrdererFlushesElided uint64 `json:"orderer_flushes_elided"`
	DedupHits            uint64 `json:"dedup_hits"`
	DedupMisses          uint64 `json:"dedup_misses"`
	// LeakedSubscriptions is the commit peers' live deliver-subscription
	// count once the run ended and every client gateway closed, minus
	// the count before any client ran — 0 proves neither completed nor
	// abandoned handles leave a stream behind.
	LeakedSubscriptions int `json:"leaked_subscriptions"`
	// MeanBatchSize is tx_ordered / blocks_ordered over the whole
	// harness lifetime — > 1 under concurrent waiters shows the targeted
	// flush preserving batching.
	MeanBatchSize float64 `json:"mean_batch_size"`
}

// MeasureMechanisms runs the machinery demonstration: a paced run with
// per-client admission set to half its fair share (so roughly half the
// arrivals shed and retry), every 5th submission a duplicate probe and
// every 7th an abandoned handle.
func MeasureMechanisms(cfg Config, txPerClient int, rate float64) (Mechanisms, error) {
	cfg = cfg.withDefaults()
	h, err := NewHarness(cfg)
	if err != nil {
		return Mechanisms{}, err
	}
	defer h.Close()
	base := h.liveSubscriptions()

	admission := rate / float64(cfg.Clients) / 2
	pt, err := h.Run(RunOptions{
		Mix:            MixZipf,
		TxPerClient:    txPerClient,
		Rate:           rate,
		DuplicateEvery: 5,
		AbandonEvery:   7,
		AdmissionRate:  admission,
		AdmissionBurst: 1,
	})
	if err != nil {
		return Mechanisms{}, err
	}

	m := Mechanisms{
		OfferedTPS:         rate,
		AdmissionPerClient: admission,
		Completed:          pt.Completed,
		Shed:               pt.Shed,
		Dropped:            pt.Dropped,
		Abandoned:          pt.Abandoned,
		DupProbes:          pt.DupProbes,
		DupRejected:        pt.DupRejected,
		GatewayAdmitted:    h.counters.Get(metrics.GatewayAdmitted),
		GatewayShed:        h.counters.Get(metrics.GatewayShed),
		GatewayFlushes:     h.counters.Get(metrics.GatewayFlushes),
	}
	om := h.net.Orderer.Metrics()
	m.OrdererFlushesElided = om[metrics.OrdererFlushesElided]
	if om[metrics.BlocksOrdered] > 0 {
		m.MeanBatchSize = float64(om[metrics.TxOrdered]) / float64(om[metrics.BlocksOrdered])
	}
	for _, org := range h.net.Orgs() {
		pm := h.net.Peer(org).Metrics()
		m.DedupHits += pm[metrics.DedupHits]
		m.DedupMisses += pm[metrics.DedupMisses]
	}
	// Each open gateway holds one shared commit-status stream by
	// design; a leak is a subscription that outlives its gateway.
	for _, g := range h.local {
		g.Close()
	}
	m.LeakedSubscriptions = h.liveSubscriptions() - base
	return m, nil
}

// liveSubscriptions sums the live deliver subscriptions of every
// commit peer.
func (h *Harness) liveSubscriptions() int {
	n := 0
	for _, org := range h.net.Orgs() {
		n += h.net.Peer(org).Deliver().SubscriberCount()
	}
	return n
}

// E2EResult is the BENCH_e2e.json artifact: the arrival-rate trajectory
// of every workload mix plus the mechanisms demonstration.
type E2EResult struct {
	Clients     int        `json:"clients"`
	TxPerClient int        `json:"tx_per_client"`
	BatchSize   int        `json:"batch_size"`
	RatesTPS    []float64  `json:"rates_tps"`
	Mixes       []MixSweep `json:"mixes"`
	Mechanisms  Mechanisms `json:"mechanisms"`
}

// MeasureE2E sweeps every workload mix across the given aggregate
// arrival rates (each mix on its own warm harness) and runs the
// mechanisms demonstration at the middle rate.
func MeasureE2E(cfg Config, txPerClient int, rates []float64) (E2EResult, error) {
	cfg = cfg.withDefaults()
	res := E2EResult{
		Clients:     cfg.Clients,
		TxPerClient: txPerClient,
		BatchSize:   cfg.BatchSize,
		RatesTPS:    rates,
	}
	for _, mix := range Mixes {
		sw, err := Sweep(cfg, RunOptions{Mix: mix, TxPerClient: txPerClient}, rates)
		if err != nil {
			return E2EResult{}, err
		}
		res.Mixes = append(res.Mixes, sw)
	}
	mid := rates[len(rates)/2]
	mech, err := MeasureMechanisms(cfg, txPerClient, mid)
	if err != nil {
		return E2EResult{}, err
	}
	res.Mechanisms = mech
	return res, nil
}

// E2EJSON renders the result as the committed BENCH_e2e.json artifact.
func E2EJSON(res E2EResult) ([]byte, error) {
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Render prints the sweep trajectories as a human-readable table.
func Render(res E2EResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Closed-loop load sweep: %d clients, %d tx/client, batch %d\n",
		res.Clients, res.TxPerClient, res.BatchSize)
	for _, mix := range res.Mixes {
		fmt.Fprintf(&b, "\nmix=%s (unpaced ceiling %.0f tx/s", mix.Mix, mix.UnpacedTPS)
		if mix.KneeTPS > 0 {
			fmt.Fprintf(&b, ", knee at %.0f tx/s offered", mix.KneeTPS)
		}
		b.WriteString(")\n")
		fmt.Fprintf(&b, "%-12s%-12s%-10s%-10s%-10s%-10s%-10s%-6s\n",
			"offered", "achieved", "invalid", "shed", "p50ms", "p95ms", "p99ms", "knee")
		for _, p := range mix.Points {
			knee := ""
			if p.Knee {
				knee = "<--"
			}
			fmt.Fprintf(&b, "%-12.0f%-12.1f%-10d%-10d%-10.2f%-10.2f%-10.2f%-6s\n",
				p.OfferedTPS, p.AchievedTPS, p.Invalid, p.Shed, p.P50Ms, p.P95Ms, p.P99Ms, knee)
		}
	}
	m := res.Mechanisms
	fmt.Fprintf(&b, "\nmechanisms @ %.0f tx/s offered, admission %.1f tx/s/client:\n", m.OfferedTPS, m.AdmissionPerClient)
	fmt.Fprintf(&b, "  shed=%d dropped=%d abandoned=%d leaked_subs=%d\n", m.Shed, m.Dropped, m.Abandoned, m.LeakedSubscriptions)
	fmt.Fprintf(&b, "  dup_probes=%d dup_rejected=%d dedup_hits=%d dedup_misses=%d\n", m.DupProbes, m.DupRejected, m.DedupHits, m.DedupMisses)
	fmt.Fprintf(&b, "  gateway_flushes=%d flushes_elided=%d mean_batch=%.2f\n", m.GatewayFlushes, m.OrdererFlushesElided, m.MeanBatchSize)
	return b.String()
}
