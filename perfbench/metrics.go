package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func (m metricSet) names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// inline renders the set sorted by name on one line.
func (m metricSet) inline() string {
	var b strings.Builder
	for _, n := range m.names() {
		fmt.Fprintf(&b, "%s=%.4g ", n, m[n].Value)
	}
	return strings.TrimSpace(b.String())
}

// lines renders the set sorted by name, one metric per line.
func (m metricSet) lines() string {
	var b strings.Builder
	for _, n := range m.names() {
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	return b.String()
}

// maxErrorFrac is the largest share of failed operations a rung may
// have and still count for max_tps.
const maxErrorFrac = 0.001

// backlogFrac: a rung whose completed operations per second fall below
// this share of the offered rate has a growing backlog.
const backlogFrac = 0.9

// txRate is a rung's committed transactions per second, from the first
// due time to the last completion.
func txRate(r *rungResult, s rungStats) float64 {
	if span := r.end.Sub(r.start).Seconds(); span > 0 {
		return float64(s.committed) / span
	}
	return 0
}

// tally counts a measurement's outcomes: every operation of the ladder
// and the read-back rung, and the ladder's committed transactions.
type tally struct{ attempted, failed, committed, invalid int }

func (m *measurement) tally() tally {
	var t tally
	for _, r := range append(append([]*rungResult(nil), m.rungs...), m.reads) {
		if r == nil {
			continue
		}
		s := r.stats()
		t.attempted += s.attempted
		t.failed += s.errors
		t.committed += s.committed
		t.invalid += s.invalid
	}
	return t
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.committed += u.committed
	t.invalid += u.invalid
}

// fractions sets ok_frac and valid_frac from the counts.
func (t tally) fractions(out metricSet) {
	out.set("ok_frac", "ratio", 1-ratio(float64(t.failed), float64(t.attempted)))
	out.set("valid_frac", "ratio", 1-ratio(float64(t.invalid), float64(t.committed)))
}

// e2eMetrics derives the end-to-end metrics of one measurement.
func (e *env) e2eMetrics(m *measurement, setupS float64) (metricSet, string) {
	out := metricSet{}
	var notes strings.Builder
	ladderOps := 0
	maxTPS := 0.0
	for i, r := range m.rungs {
		s := r.stats()
		ladderOps += s.attempted - s.errors
		c := summarize(s.commitMs)
		pass := ratio(float64(s.errors), float64(s.attempted)) <= maxErrorFrac &&
			c.N > 0 && c.P99 <= e.w.limitMs && s.achieved >= backlogFrac*s.rate
		if pass {
			maxTPS = txRate(r, s)
		}
		fmt.Fprintf(&notes, "rung %d: offered %6.0f ops/s  ops %6d  achieved %8.1f ops/s  commit p50 %8.2f ms p99 %8.2f ms (n=%d, p%g=%.2f)  errors %d  late p99 %.0f us  in-flight max %d  limit %s\n",
			i, s.rate, s.attempted, s.achieved, c.P50, c.P99, c.N, c.Tail, c.TailValue, s.errors,
			quantile(s.lateUs, 0.99), s.maxIn, map[bool]string{true: "met", false: "missed"}[pass])
	}
	fmt.Fprintf(&notes, "cpu steal during the ladder: %.1f%%\n", 100*m.stealFrac)
	top := m.rungs[len(m.rungs)-1]
	ref := m.rungs[e.w.ref].stats()
	commit := summarize(ref.commitMs)
	readSamples := ref.readMs
	if m.reads != nil {
		readSamples = m.reads.stats().readMs
	}
	read := summarize(readSamples)
	fmt.Fprintf(&notes, "reference rung %d: commit n=%d p50 %.3f ms p99 %.3f ms (highest supported p%g, %d windows of n=%d); read n=%d p50 %.3f ms p99 %.3f ms (highest supported p%g, %d windows of n=%d)\n",
		e.w.ref, commit.N, commit.P50, commit.P99, commit.Tail, refWindows, commit.N/refWindows,
		read.N, read.P50, read.P99, read.Tail, refWindows, read.N/refWindows)

	out.set("max_tps", "tx/s", maxTPS)
	out.set("peak_tps", "tx/s", txRate(top, top.stats()))
	out.set("commit_p50_ms", "ms", commit.P50)
	out.set("read_p50_ms", "ms", read.P50)
	out.set("cpu_ms_per_tx", "ms", ratio(m.cpuSec*1000, float64(ladderOps)))
	out.set("peak_rss_mb", "MB", m.peakRSS/(1<<20))
	m.tally().fractions(out)
	out.set("setup_s", "s", setupS)
	return out, notes.String()
}

// layerMetrics derives the per-layer metrics of a traced measurement.
// Every figure is taken over the reference rung: spans recorded in it,
// and counter growth between the snapshots around it. Evaluate spans
// also come from the read-back rung, where a workload has one.
func (e *env) layerMetrics(m *measurement, spans []span) metricSet {
	out := metricSet{}
	ref := m.rungs[e.w.ref]
	rs := ref.stats()
	ops := float64(rs.attempted - rs.errors)
	txs := float64(rs.committed)

	byName := map[string][]*span{}
	readRung := len(e.w.rates)
	for i := range spans {
		s := &spans[i]
		if s.Rung == e.w.ref || (s.Rung == readRung && s.Name == "gateway.evaluate") {
			byName[s.Name] = append(byName[s.Name], s)
		}
	}
	durs := func(name string) []float64 {
		var d []float64
		for _, s := range byName[name] {
			d = append(d, us(s.dur()))
		}
		return d
	}
	q := func(name string, p float64) float64 { return quantile(durs(name), p) }
	sum := func(name string) float64 {
		var t float64
		for _, d := range durs(name) {
			t += d
		}
		return t
	}

	// The p99s are per-layer figures: on a shared host their spread
	// between runs is wider than any bound an end-to-end metric may have.
	out.set("commit_p99_ms", "ms", windowedP99(rs.commitMs))
	readMs := rs.readMs
	if m.reads != nil {
		readMs = m.reads.stats().readMs
	}
	out.set("read_p99_ms", "ms", windowedP99(readMs))
	out.set("gen.late_us.p99", "us", quantile(rs.lateUs, 0.99))
	out.set("gen.in_flight.max", "count", float64(rs.maxIn))

	for _, n := range []string{"submit", "status", "notify", "evaluate"} {
		out.set("gateway."+n+"_us.p50", "us", q("gateway."+n, 0.5))
		out.set("gateway."+n+"_us.p99", "us", q("gateway."+n, 0.99))
	}
	// pre-order: SubmitAsync start → the gateway's Order call.
	submits := map[uint64]*span{}
	for _, s := range byName["gateway.submit"] {
		submits[s.ID] = s
	}
	var preOrder []float64
	for _, s := range byName["orderer.order"] {
		if p := submits[s.Parent]; p != nil {
			preOrder = append(preOrder, float64(s.Start-p.Start)/1e3)
		}
	}
	out.set("gateway.pre_order_us.p50", "us", quantile(preOrder, 0.5))

	out.set("endorser.endorse_us.p50", "us", q("endorser.endorse", 0.5))
	out.set("endorser.endorse_us.p99", "us", q("endorser.endorse", 0.99))
	out.set("endorser.calls_per_op", "count", ratio(float64(len(byName["endorser.endorse"])), ops))
	out.set("endorser.busy_us_per_op", "us", ratio(sum("endorser.endorse"), ops))

	out.set("orderer.order_us.p50", "us", q("orderer.order", 0.5))
	out.set("orderer.order_us.p99", "us", q("orderer.order", 0.99))
	out.set("orderer.flushtx_per_tx", "count", ratio(float64(len(byName["orderer.flushtx"])), txs))
	out.set("peer.commit_block_us.p50", "us", q("peer.commit_block", 0.5))
	out.set("peer.commit_block_us.p99", "us", q("peer.commit_block", 0.99))

	self := selfTimes(spans)
	for _, n := range []string{"gateway.submit", "gateway.status", "gateway.evaluate", "endorser.endorse", "orderer.order", "peer.commit_block"} {
		var v []float64
		for _, s := range byName[n] {
			v = append(v, us(self[s.ID]))
		}
		out.set("self."+n+"_us.mean", "us", mean(v))
	}

	a, b := m.before.layers, m.after.layers
	ord := func(name string) float64 { return float64(b.ordM[name]) - float64(a.ordM[name]) }
	ordHist := func(name string) float64 {
		s, c := histDeltaUs(a.ordT[name], b.ordT[name])
		return ratio(s, c)
	}
	npeers := float64(len(b.peerM))
	if b.ordM != nil {
		out.set("orderer.queue_wait_us.mean", "us", ordHist(metrics.OrdererQueueWait))
		out.set("orderer.txs_per_block", "count", ratio(ord(metrics.TxOrdered), ord(metrics.BlocksOrdered)))
		out.set("orderer.flushes_elided_frac", "ratio", ratio(ord(metrics.OrdererFlushesElided), float64(len(byName["orderer.flushtx"]))))
		out.set("raft.round_us.mean", "us", ordHist(metrics.OrdererConsensus))
		out.set("raft.txs_per_round", "count", ratio(ord(metrics.OrdererBatchedTxs), ord(metrics.OrdererRounds)))
		out.set("peer.commit_us_per_tx", "us", ratio(sum("peer.commit_block"), txs*npeers))
		out.set("validator.verify_us.mean", "us", peerHistMeanUs(a, b, metrics.ValidateVerify))
		out.set("validator.policy_us.mean", "us", peerHistMeanUs(a, b, metrics.ValidatePolicy))
		out.set("validator.mvcc_us.mean", "us", peerHistMeanUs(a, b, metrics.ValidateMVCC))
		out.set("validator.commit_us.mean", "us", peerHistMeanUs(a, b, metrics.ValidateCommit))
		hits, misses := peerSum(a, b, metrics.VerifyCacheHits), peerSum(a, b, metrics.VerifyCacheMisses)
		out.set("validator.verify_cache_hit_frac", "ratio", ratio(hits, hits+misses))
		out.set("deliver.statuses_per_tx", "count", ratio(peerSum(a, b, metrics.DeliverStatuses), txs))
		out.set("statedb.gets_per_op", "count", ratio(peerSum(a, b, metrics.StateDBGets), ops))
		out.set("statedb.snapshots_per_op", "count", ratio(peerSum(a, b, metrics.StateDBSnapshots), ops))
		out.set("statedb.lock_wait_us.mean", "us", peerHistMeanUs(a, b, metrics.StateDBLockWait))
		out.set("pvtdata.missing.end", "count", float64(b.missing))
		ma, mb := &m.before.mem, &m.after.mem
		out.set("runtime.alloc_bytes_per_op", "B", ratio(float64(mb.TotalAlloc-ma.TotalAlloc), ops))
		out.set("runtime.allocs_per_op", "count", ratio(float64(mb.Mallocs-ma.Mallocs), ops))
		out.set("runtime.gc_cpu_frac", "ratio", ratio(m.after.gc.gc-m.before.gc.gc, m.after.gc.total-m.before.gc.total))
		out.set("runtime.heap_inuse_mb.end", "MB", float64(mb.HeapInuse)/(1<<20))
	}
	wa, wb := m.before.wire, m.after.wire
	out.set("storage.disk_bytes_per_tx", "B", ratio(float64(m.after.disk-m.before.disk), txs))
	out.set("wire.rpcs_per_tx", "count", ratio(wb[0]-wa[0], txs))
	out.set("wire.bytes_out_per_tx", "B", ratio(wb[1]-wa[1], txs))
	out.set("wire.bytes_in_per_tx", "B", ratio(wb[2]-wa[2], txs))
	out.set("error_frac", "ratio", ratio(float64(rs.errors), float64(rs.attempted)))
	out.set("invalid_frac", "ratio", ratio(float64(rs.invalid), txs))
	return out
}

// layerNames lists every per-layer metric, so a workload that does not
// exercise a layer reports it as 0 rather than leaving it out.
var layerUnits = map[string]string{}

func init() {
	for _, n := range []string{
		"gen.late_us.p99", "gateway.submit_us.p50", "gateway.submit_us.p99", "gateway.pre_order_us.p50",
		"gateway.status_us.p50", "gateway.status_us.p99", "gateway.notify_us.p50", "gateway.notify_us.p99",
		"gateway.evaluate_us.p50", "gateway.evaluate_us.p99", "endorser.endorse_us.p50", "endorser.endorse_us.p99",
		"endorser.busy_us_per_op", "orderer.order_us.p50", "orderer.order_us.p99", "orderer.queue_wait_us.mean",
		"raft.round_us.mean", "peer.commit_block_us.p50", "peer.commit_block_us.p99", "peer.commit_us_per_tx",
		"validator.verify_us.mean", "validator.policy_us.mean", "validator.mvcc_us.mean", "validator.commit_us.mean",
		"statedb.lock_wait_us.mean",
		"self.gateway.submit_us.mean", "self.gateway.status_us.mean", "self.gateway.evaluate_us.mean",
		"self.endorser.endorse_us.mean", "self.orderer.order_us.mean", "self.peer.commit_block_us.mean",
	} {
		layerUnits[n] = "us"
	}
	for _, n := range []string{
		"gen.in_flight.max", "endorser.calls_per_op", "orderer.txs_per_block", "orderer.flushtx_per_tx",
		"raft.txs_per_round", "deliver.statuses_per_tx", "deliver.subscribers.end", "statedb.gets_per_op",
		"statedb.snapshots_per_op", "pvtdata.missing.end", "wire.rpcs_per_tx", "runtime.allocs_per_op",
	} {
		layerUnits[n] = "count"
	}
	for _, n := range []string{
		"orderer.flushes_elided_frac", "validator.verify_cache_hit_frac", "runtime.gc_cpu_frac",
		"error_frac", "invalid_frac",
	} {
		layerUnits[n] = "ratio"
	}
	for _, n := range []string{"storage.disk_bytes_per_tx", "wire.bytes_out_per_tx", "wire.bytes_in_per_tx", "runtime.alloc_bytes_per_op"} {
		layerUnits[n] = "B"
	}
	layerUnits["runtime.heap_inuse_mb.end"] = "MB"
	layerUnits["commit_p99_ms"] = "ms"
	layerUnits["read_p99_ms"] = "ms"
	layerUnits["trace.overhead.cpu_ms_per_tx"] = "ms"
	layerUnits["trace.overhead.commit_p50_ms"] = "ms"
}

// fillLayers adds every per-layer metric the workload did not produce,
// as 0.
func fillLayers(m metricSet) {
	for n, u := range layerUnits {
		if _, ok := m[n]; !ok {
			m.set(n, u, 0)
		}
	}
}
