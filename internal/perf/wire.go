package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/loadgen"
	"repro/internal/netconfig"
	"repro/internal/node"
	"repro/internal/pvtdata"
	"repro/internal/service"
	"repro/internal/wire"
)

// WireCell is one scenario of the transport comparison: the same
// closed-loop burst measured either through in-process gateways or
// through wire-protocol clients talking to a cluster of separate OS
// processes.
type WireCell struct {
	// Scenario is "in-process" for the baseline, or "wire" with
	// "-tls"/"-large" variants for the deployment cells.
	Scenario string `json:"scenario"`
	// TLS marks cells whose cluster ran pinned-key TLS.
	TLS bool `json:"tls,omitempty"`
	// Mix is the loadgen workload driving the cell.
	Mix string `json:"mix"`
	// Processes counts the OS processes serving the burst (1 for the
	// in-process baseline; orderer + peers + gateway for wire runs).
	Processes int `json:"processes"`
	loadgen.PointJSON
	// RPC aggregates per-method call and framed-byte counters across
	// the client fleet (wire cells only).
	RPC map[string]wire.RPCStat `json:"rpc,omitempty"`
}

// BytesPerTx returns the cell's total framed bytes (both directions,
// all methods) divided by completed transactions; 0 when the cell has
// no RPC stats or completed nothing.
func (c WireCell) BytesPerTx() float64 {
	if c.Completed == 0 || len(c.RPC) == 0 {
		return 0
	}
	var total uint64
	for _, st := range c.RPC {
		total += st.BytesOut + st.BytesIn
	}
	return float64(total) / float64(c.Completed)
}

// WireOptions selects which transport-comparison cells to run.
type WireOptions struct {
	Clients     int
	TxPerClient int
	BatchSize   int
	// TLS adds a cell over pinned-key TLS.
	TLS bool
	// Large adds a cell running MixLarge (16 KiB values), stressing
	// payload size rather than round-trip count.
	Large bool
}

// WireResult is the BENCH_wire.json artifact: submit→commit latency,
// throughput and framed-byte cost for the in-process baseline against
// multi-process wire deployments, same workload, same topology.
type WireResult struct {
	Clients     int        `json:"clients"`
	TxPerClient int        `json:"tx_per_client"`
	BatchSize   int        `json:"batch_size"`
	Cells       []WireCell `json:"cells"`
}

// Cell returns the first cell with the given scenario name, or nil.
func (r *WireResult) Cell(scenario string) *WireCell {
	for i := range r.Cells {
		if r.Cells[i].Scenario == scenario {
			return &r.Cells[i]
		}
	}
	return nil
}

// wireTopology mirrors the in-process loadgen harness: three orgs, one
// peer each, the public "asset" chaincode (the burst is public writes;
// the PDC flow has its own scenarios).
func wireTopology(batch int) *netconfig.Config {
	return &netconfig.Config{
		Orgs:      []string{"org1", "org2", "org3"},
		BatchSize: batch,
		Seed:      1,
		Chaincodes: []netconfig.Chaincode{{
			Name:    "asset",
			Version: "1.0",
			Collections: []pvtdata.CollectionConfig{{
				Name:         "pdc1",
				MemberPolicy: "OR(org1.member, org2.member)",
				MaxPeerCount: 3,
			}},
			Contract:   "merged",
			Collection: "pdc1",
		}},
	}
}

// MeasureWire runs the same closed-loop burst through in-process
// gateways (the baseline every other benchmark uses) and then through
// the TCP wire protocol against clusters of real OS processes launched
// from self (the running binary re-executed with PDC_WIRE_ROLE set —
// the caller's main must route through node.RunRoleFromEnv). Each wire
// cell gets its own cluster so its TLS mode governs every hop,
// client→gateway and gateway→peer→orderer alike. The gap between cells
// is the cost of frames, encoding, TCP and process isolation on the
// submit→commit path.
func MeasureWire(self string, o WireOptions) (WireResult, error) {
	res := WireResult{Clients: o.Clients, TxPerClient: o.TxPerClient, BatchSize: o.BatchSize}
	zipf := loadgen.RunOptions{Mix: loadgen.MixZipf, TxPerClient: o.TxPerClient, Keys: 64}

	// In-process baseline.
	h, err := loadgen.NewHarness(loadgen.Config{Clients: o.Clients, BatchSize: o.BatchSize, Seed: 1})
	if err != nil {
		return WireResult{}, fmt.Errorf("perf: wire baseline: %w", err)
	}
	if _, err := h.Run(warmup(zipf)); err != nil {
		h.Close()
		return WireResult{}, fmt.Errorf("perf: wire baseline warmup: %w", err)
	}
	pt, err := h.Run(zipf)
	h.Close()
	if err != nil {
		return WireResult{}, fmt.Errorf("perf: wire baseline: %w", err)
	}
	res.Cells = append(res.Cells, WireCell{
		Scenario: "in-process", Mix: loadgen.MixZipf, Processes: 1, PointJSON: pt.JSON(),
	})

	cell, err := runWireCell(self, "wire", false, o, zipf)
	if err != nil {
		return WireResult{}, err
	}
	res.Cells = append(res.Cells, cell)
	if o.TLS {
		cell, err := runWireCell(self, "wire-tls", true, o, zipf)
		if err != nil {
			return WireResult{}, err
		}
		res.Cells = append(res.Cells, cell)
	}
	if o.Large {
		large := zipf
		large.Mix = loadgen.MixLarge
		cell, err := runWireCell(self, "wire-large", false, o, large)
		if err != nil {
			return WireResult{}, err
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// warmup derives a short discarded burst from a cell's run options.
func warmup(opts loadgen.RunOptions) loadgen.RunOptions {
	opts.TxPerClient = min(10, opts.TxPerClient)
	return opts
}

// fleetStats sums per-method RPC counters across the client fleet.
func fleetStats(gwcs []*wire.GatewayClient) map[string]wire.RPCStat {
	out := make(map[string]wire.RPCStat)
	for _, gwc := range gwcs {
		for method, st := range gwc.RPCStats() {
			agg := out[method]
			agg.Calls += st.Calls
			agg.BytesOut += st.BytesOut
			agg.BytesIn += st.BytesIn
			out[method] = agg
		}
	}
	return out
}

// runWireCell launches a fresh cluster with the given TLS mode, drives
// the burst through a fleet of wire gateway clients, and folds the
// fleet's per-RPC byte counters into the cell.
func runWireCell(self, scenario string, tlsOn bool, o WireOptions, opts loadgen.RunOptions) (WireCell, error) {
	cfg := wireTopology(o.BatchSize)
	if err := cfg.Validate(); err != nil {
		return WireCell{}, err
	}
	dir, err := os.MkdirTemp("", "fabricbench-wire-")
	if err != nil {
		return WireCell{}, err
	}
	defer os.RemoveAll(dir)
	cl, err := node.LaunchCluster(cfg, node.LaunchOptions{Self: self, Dir: dir, TLS: tlsOn})
	if err != nil {
		return WireCell{}, fmt.Errorf("perf: launch cluster (%s): %w", scenario, err)
	}
	defer cl.Stop()

	// One wire connection per client, so the burst exercises real
	// concurrent connections rather than one multiplexed socket.
	fleet := make([]service.Gateway, o.Clients)
	gwcs := make([]*wire.GatewayClient, o.Clients)
	for c := range fleet {
		gwc, err := cl.DialGateway()
		if err != nil {
			return WireCell{}, fmt.Errorf("perf: dial gateway (%s): %w", scenario, err)
		}
		defer gwc.Close()
		fleet[c] = gwc
		gwcs[c] = gwc
	}
	rh, err := loadgen.NewRemoteHarness(loadgen.Config{Clients: o.Clients, BatchSize: o.BatchSize, Seed: 1},
		cl.Material.Channel, fleet...)
	if err != nil {
		return WireCell{}, err
	}
	// A discarded warmup burst first: freshly-spawned processes pay
	// connection ramp and cold caches on their first transactions,
	// which otherwise lands entirely in this cell's tail.
	if _, err := rh.Run(warmup(opts)); err != nil {
		return WireCell{}, fmt.Errorf("perf: wire warmup (%s): %w", scenario, err)
	}
	warm := fleetStats(gwcs)
	pt, err := rh.Run(opts)
	if err != nil {
		return WireCell{}, fmt.Errorf("perf: wire run (%s): %w", scenario, err)
	}
	// Report only the measured burst's traffic: the counters are
	// cumulative per connection, so subtract the warmup snapshot.
	rpc := fleetStats(gwcs)
	for method, st := range rpc {
		w := warm[method]
		st.Calls -= w.Calls
		st.BytesOut -= w.BytesOut
		st.BytesIn -= w.BytesIn
		rpc[method] = st
	}
	// orderer + peers + gateway processes serve the wire cell.
	return WireCell{
		Scenario:  scenario,
		TLS:       tlsOn,
		Mix:       opts.Mix,
		Processes: len(cl.PeerNames()) + 2,
		PointJSON: pt.JSON(),
		RPC:       rpc,
	}, nil
}

// WireJSON renders the result as the committed BENCH_wire.json artifact.
func WireJSON(res WireResult) ([]byte, error) {
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// RenderWire prints the transport comparison as a table, with p50
// ratios against the in-process baseline and per-transaction framed
// byte costs where measured.
func RenderWire(res WireResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Transport comparison: %d clients x %d tx, batch %d\n\n",
		res.Clients, res.TxPerClient, res.BatchSize)
	fmt.Fprintf(&b, "%-18s%-6s%-6s%-12s%-10s%-10s%-10s%-10s%-10s\n",
		"scenario", "tls", "procs", "achieved", "invalid", "p50ms", "p95ms", "p99ms", "B/tx")
	base := res.Cell("in-process")
	for _, c := range res.Cells {
		fmt.Fprintf(&b, "%-18s%-6v%-6d%-12.1f%-10d%-10.2f%-10.2f%-10.2f%-10.0f\n",
			c.Scenario, c.TLS, c.Processes, c.AchievedTPS, c.Invalid,
			c.P50Ms, c.P95Ms, c.P99Ms, c.BytesPerTx())
	}
	if base != nil && base.P50Ms > 0 {
		b.WriteString("\n")
		for _, c := range res.Cells {
			if c.Scenario == "in-process" {
				continue
			}
			fmt.Fprintf(&b, "%s/in-process p50 ratio: %.2fx\n", c.Scenario, c.P50Ms/base.P50Ms)
		}
	}
	for _, c := range res.Cells {
		if len(c.RPC) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s per-RPC traffic:\n", c.Scenario)
		methods := make([]string, 0, len(c.RPC))
		for m := range c.RPC {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		for _, m := range methods {
			st := c.RPC[m]
			fmt.Fprintf(&b, "  %-16s calls=%-7d out=%-10d in=%d\n", m, st.Calls, st.BytesOut, st.BytesIn)
		}
	}
	return b.String()
}
