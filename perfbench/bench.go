package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/ledger"
	"repro/internal/service"
)

// sys is a running system under test.
type sys interface {
	clients() []service.Gateway
	procs() procSet
	// settle waits until every peer has committed every cut block.
	settle(ctx context.Context) error
	close() error
}

// env is one benchmark run.
type env struct {
	w       *workload
	seed    int64
	seconds int
	dir     string // scratch space for storage and cluster files
	clients int
	run     runner
	warm    []op
	gen     generator
}

const opTimeout = 30 * time.Second

// passSeconds is how long one pass over the ladder is scheduled for.
func (e *env) passSeconds() float64 { return float64(e.seconds) / passes }

func newEnv(w *workload, seed int64, seconds int, dir string) *env {
	clients := min(runtime.NumCPU(), len(orgs))
	if w.inproc == nil {
		clients = runtime.NumCPU()
	}
	e := &env{w: w, seed: seed, seconds: seconds, dir: dir, clients: clients, run: runner{timeout: opTimeout}}
	e.gen = w.newGen(seed, clients)
	e.warm = schedule(e.gen.warmup(w.warmOps), w.warmRate)
	return e
}

// setup builds a network, deploys the chaincode and runs the warm-up.
func (e *env) setup(ctx context.Context, i int, tr *tracer) (sys, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("setup%d", i))
	var s sys
	if e.w.inproc != nil {
		cfg := *e.w.inproc
		cfg.clients, cfg.seed = e.clients, e.seed
		if cfg.security.StorageBackend == "durable" {
			cfg.security.StorageDir = filepath.Join(dir, "storage")
		}
		n, err := buildInproc(cfg, tr)
		if err != nil {
			return nil, err
		}
		n.storageDir = cfg.security.StorageDir
		s = n
	} else {
		c, err := launchCluster(dir, e.clients, e.seed)
		if err != nil {
			return nil, err
		}
		s = c
	}
	res := e.run.run(ctx, e.w.warmRate, e.warm, e.executor(s, nil))
	if err := firstFailure(res); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := s.settle(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// firstFailure reports the first op of a rung that errored or did not
// commit as VALID.
func firstFailure(r *rungResult) error {
	for i := range r.out {
		o := &r.out[i]
		if o.err != nil {
			return fmt.Errorf("%s %v: %w", r.ops[i].kind, r.ops[i].args[0], o.err)
		}
		if r.ops[i].kind != opRead && o.code != ledger.Valid {
			return fmt.Errorf("%s %v: committed %s", r.ops[i].kind, r.ops[i].args[0], o.code)
		}
	}
	return nil
}

// executor issues ops through the system's client connections. With a
// tracer it records the gateway.* spans and passes the span in the
// context so the traced peers and orderer can name their parent.
func (e *env) executor(s sys, tr *tracer) executor {
	clients := s.clients()
	var commitPeer func(int) string
	if n, ok := s.(*inprocNet); ok {
		commitPeer = n.commitPeerName
	}
	return func(ctx context.Context, o *op) outcome {
		g := clients[o.gw]
		req := service.NewInvoke(ccName, o.fn, o.args...).WithTransient(o.transient)
		if o.endorsers != nil {
			req.WithEndorsers(o.endorsers...)
		}
		if o.kind == opRead {
			if tr == nil {
				p, err := g.Evaluate(ctx, req)
				return outcome{payload: p, err: err}
			}
			id, start := tr.begin()
			p, err := g.Evaluate(withSpan(ctx, id), req)
			tr.end(id, 0, start, "gateway.evaluate", "", "")
			return outcome{payload: p, err: err}
		}

		var sub uint64
		var subStart int64
		sctx := ctx
		if tr != nil {
			sub, subStart = tr.begin()
			sctx = withSpan(ctx, sub)
		}
		c, err := g.SubmitAsync(sctx, req)
		if tr != nil {
			txID := ""
			if c != nil {
				txID = c.TxID()
			}
			tr.end(sub, 0, subStart, "gateway.submit", txID, "")
		}
		if err != nil {
			return outcome{err: err}
		}
		defer c.Close()
		txID := c.TxID()
		if tr == nil {
			res, err := c.Status(ctx)
			if err != nil {
				return outcome{err: err, txID: txID}
			}
			return outcome{committed: true, code: res.Code, txID: txID}
		}
		stat, statStart := tr.begin()
		tr.status.Store(txID, stat)
		res, err := c.Status(ctx)
		tr.end(stat, 0, statStart, "gateway.status", txID, "")
		tr.status.Delete(txID)
		if commitPeer != nil {
			if at, ok := tr.committed.LoadAndDelete(commitPeer(o.gw) + "/" + txID); ok {
				tr.end(tr.ids.Add(1), stat, at.(int64), "gateway.notify", txID, "")
			}
		}
		if err != nil {
			return outcome{err: err, txID: txID}
		}
		return outcome{committed: true, code: res.Code, txID: txID}
	}
}

// measurement is everything one pass over the ladder records.
type measurement struct {
	rungs []*rungResult
	reads *rungResult // read-back rung, on workloads without reads in the mix
	// readWant is each key's last committed value when the read-back
	// rung ran (zipf).
	readWant map[string]string
	cpuSec   float64 // system CPU over the ladder rungs
	peakRSS  float64 // bytes
	// stealFrac is the share of the host's CPU time the hypervisor
	// stole during the ladder: other tenants' load, a source of noise.
	stealFrac float64

	// before and after bracket the reference rung, for the per-layer
	// metrics.
	before, after snapshot
}

// snapshot is every counter the per-layer metrics difference.
type snapshot struct {
	layers layerSnap // in-process only
	mem    runtime.MemStats
	gc     gcCPU
	disk   int64      // bytes under the run's scratch directory
	wire   [3]float64 // cluster only: rpcs, bytes out, bytes in
}

// measure runs the ladder and the read-back rung on a warm system.
func (e *env) measure(ctx context.Context, s sys, tr *tracer) (*measurement, error) {
	m := &measurement{}
	exec := e.executor(s, tr)
	procs := s.procs()
	rss := startRSS(procs)
	steal0, total0 := hostCPU()
	for i, rate := range e.w.rates {
		ops := schedule(e.gen.rung(e.w.rungOps(i, e.passSeconds())), rate)
		if tr != nil {
			tr.rung.Store(int64(i))
		}
		// Every rung starts from a collected heap, so when the
		// collector runs inside a rung depends on the rung's own work,
		// not on garbage left by the previous one.
		runtime.GC()
		ref := i == e.w.ref
		if ref {
			m.before = e.snapshot(s)
		}
		cpu0 := procs.cpuSeconds()
		r := e.run.run(ctx, rate, ops, exec)
		if err := s.settle(ctx); err != nil {
			rss.finish()
			return nil, err
		}
		m.cpuSec += procs.cpuSeconds() - cpu0
		if ref {
			m.after = e.snapshot(s)
		}
		m.rungs = append(m.rungs, r)
		// The read-back rung follows the reference rung, at the same
		// chain height and heap size on every run.
		if n := e.w.readOps(e.passSeconds()); ref && n > 0 {
			if tr != nil {
				tr.rung.Store(int64(len(e.w.rates)))
			}
			runtime.GC()
			m.reads = e.run.run(ctx, e.w.readRate, schedule(e.gen.reads(n), e.w.readRate), exec)
			if e.w.inproc != nil {
				m.readWant = lastWrites(s.(*inprocNet).peers[0])
			}
		}
	}
	m.peakRSS = rss.finish()
	steal1, total1 := hostCPU()
	m.stealFrac = ratio(steal1-steal0, total1-total0)
	return m, nil
}

func (e *env) snapshot(s sys) snapshot {
	out := snapshot{disk: dirBytes(e.dir)}
	switch s := s.(type) {
	case *inprocNet:
		out.layers = s.snap()
		runtime.ReadMemStats(&out.mem)
		out.gc = readGCCPU()
	case *clusterSys:
		out.wire[0], out.wire[1], out.wire[2] = s.wireStats()
	}
	return out
}

// gcCPU is the runtime's cumulative CPU split.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	var out gcCPU
	if samples[0].Value.Kind() == rtmetrics.KindFloat64 {
		out.gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == rtmetrics.KindFloat64 {
		out.total = samples[1].Value.Float64()
	}
	return out
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// check runs every output check on a drained system. It closes the
// in-process gateways (the clients are done) and returns the deliver
// subscriptions they left behind.
func (e *env) check(ctx context.Context, s sys, m *measurement) (*checker, int) {
	c := &checker{}
	c.terminal(m)
	sctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if err := s.settle(sctx); err != nil {
		c.failf("settle: %v", err)
		return c, 0
	}
	wantWritten := func(o *op) (string, bool) { return o.value, true }
	switch s := s.(type) {
	case *clusterSys:
		c.clusterState(sctx, s)
		c.reads(m.reads, wantWritten)
		return c, 0
	case *inprocNet:
		for _, err := range s.errs() {
			c.failf("%v", err)
		}
		c.ledgerAgrees(s.peers[0], m)
		if g, ok := e.gen.(*pdcGen); ok {
			c.sameState(s.peers[:2])
			c.sameSharedState(s.peers)
			for _, r := range m.rungs {
				c.reads(r, wantWritten)
			}
			c.pdc(s, g, filepath.Join(s.storageDir, s.peers[2].Name()))
		} else {
			c.sameState(s.peers)
			c.reads(m.reads, func(o *op) (string, bool) {
				v, ok := m.readWant[o.key]
				if !ok {
					c.failf("read key %s was never written", o.key)
				}
				return v, ok
			})
		}
		subs := s.closeGateways()
		if subs != 0 {
			c.failf("%d deliver subscriptions left after every gateway closed", subs)
		}
		return c, subs
	}
	return c, 0
}
