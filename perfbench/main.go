// Command perfbench is the repository's benchmark. It runs one named
// workload against the real code on an open-loop schedule, checks the
// system's outputs, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) with the result
// object as the last line of standard output. See README.md.
//
// Usage:
//
//	bash perfbench/run.sh --workload zipf --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// passes is how many times an end-to-end run sets up a fresh system and
// measures the whole ladder on it, with the same inputs each time. Every
// end-to-end metric is the median over the passes (ok_frac and
// valid_frac pool them), so one system that happens to run slow or
// fast moves no figure.
const passes = 5

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	// The wire workload re-executes this binary to host its roles.
	if dir := os.Getenv(hostEnv); dir != "" {
		if err := runHost(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench wire host:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: zipf, pdc or wire-large")
	seed := flag.Int64("seed", 1, "seed of the generated operations")
	seconds := flag.Int("seconds", 20, "seconds over which the ladder's operations are scheduled")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for scratch files and the span file")
	flag.Parse()

	w := workloads()[*name]
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(w *workload, seed int64, seconds int, traced bool, dir string) (*result, error) {
	work := filepath.Join(dir, fmt.Sprintf("work-%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	h, _ := json.Marshal(hostInfo())
	fmt.Printf("host %s\n", h)
	fmt.Printf("workload %s seed %d seconds %d trace %v ladder %v ops/s, reference rung %d, commit p99 limit %.0f ms\n",
		w.name, seed, seconds, traced, w.rates, w.ref, w.limitMs)
	ctx := context.Background()
	e := newEnv(w, seed, seconds, work)
	if !traced {
		return e.untraced(ctx)
	}
	return e.traced(ctx, dir)
}

// untraced is the end-to-end run: passes times set up a fresh system,
// measure the ladder on it and check its outputs; report the medians.
func (e *env) untraced(ctx context.Context) (*result, error) {
	var setups []float64
	var sets []metricSet
	var t tally
	res := &result{Correct: true}
	for i := 0; i < passes; i++ {
		e.reset()
		start := time.Now()
		s, err := e.setup(ctx, i, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		runtime.GC()
		m, err := e.measure(ctx, s, nil)
		if err != nil {
			s.close()
			return nil, err
		}
		metrics, notes := e.e2eMetrics(m, setups[i])
		fmt.Printf("pass %d\n%s  %s\n", i, notes, metrics.inline())
		c, _ := e.check(ctx, s, m)
		if err := s.close(); err != nil {
			c.failf("close: %v", err)
		}
		os.RemoveAll(e.setupDir(i))
		r := e.result(m, metrics, c)
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		t.add(m.tally())
		sets = append(sets, metrics)
	}
	res.Metrics = metricSet{}
	for name, mt := range sets[0] {
		var v []float64
		for _, s := range sets {
			v = append(v, s[name].Value)
		}
		res.Metrics.set(name, mt.Unit, median(v))
	}
	t.fractions(res.Metrics)
	fmt.Printf("setup seconds %v\n", setups)
	fmt.Printf("end-to-end metrics, median of %d passes\n%s", passes, res.Metrics.lines())
	return res, nil
}

// traced runs the same inputs twice on fresh networks, untraced and
// traced, and reports the per-layer metrics plus the tracing overhead.
func (e *env) traced(ctx context.Context, dir string) (*result, error) {
	s0, err := e.setup(ctx, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	m0, err := e.measure(ctx, s0, nil)
	s0.close()
	if err != nil {
		return nil, err
	}
	base, _ := e.e2eMetrics(m0, 0)
	os.RemoveAll(e.setupDir(0))

	e.reset()
	tr := newTracer()
	tr.rung.Store(-1)
	s, err := e.setup(ctx, 1, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	m, err := e.measure(ctx, s, tr)
	if err != nil {
		s.close()
		return nil, err
	}
	traced, notes := e.e2eMetrics(m, 0)
	fmt.Print(notes)
	c, subs := e.check(ctx, s, m)
	if err := s.close(); err != nil {
		c.failf("close: %v", err)
	}
	spans := tr.snapshot()
	fillTraces(spans)
	layers := e.layerMetrics(m, spans)
	layers.set("deliver.subscribers.end", "count", float64(subs))
	layers.set("trace.overhead.cpu_ms_per_tx", "ms", traced["cpu_ms_per_tx"].Value-base["cpu_ms_per_tx"].Value)
	layers.set("trace.overhead.commit_p50_ms", "ms", traced["commit_p50_ms"].Value-base["commit_p50_ms"].Value)
	fillLayers(layers)

	path := filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", e.w.name, e.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans of the reference rung (all rungs in %s)\n", path)
	var ref []span
	for _, sp := range spans {
		if sp.Rung == e.w.ref {
			ref = append(ref, sp)
		}
	}
	for _, row := range spanTable(ref) {
		fmt.Println("  " + row.String())
	}
	fmt.Printf("untraced cpu_ms_per_tx %.4f commit_p50_ms %.4f; traced %.4f %.4f\n",
		base["cpu_ms_per_tx"].Value, base["commit_p50_ms"].Value, traced["cpu_ms_per_tx"].Value, traced["commit_p50_ms"].Value)
	fmt.Print("per-layer metrics\n" + layers.lines())
	return e.result(m, layers, c), nil
}

func (e *env) setupDir(i int) string { return filepath.Join(e.dir, fmt.Sprintf("setup%d", i)) }

// reset restarts the generator, so a second pass gets the same inputs.
func (e *env) reset() {
	e.gen = e.w.newGen(e.seed, e.clients)
	e.warm = schedule(e.gen.warmup(e.w.warmOps), e.w.warmRate)
}

func (e *env) result(m *measurement, metrics metricSet, c *checker) *result {
	t := m.tally()
	res := &result{Correct: c.ok(), Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	for _, f := range c.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	if c.ok() {
		fmt.Println("output checks passed")
	}
	return res
}

// fillTraces gives a root span without a TxID (an Evaluate) the TxID
// its children carry.
func fillTraces(spans []span) {
	idx := map[uint64]int{}
	for i := range spans {
		idx[spans[i].ID] = i
	}
	for i := range spans {
		if p, ok := idx[spans[i].Parent]; ok && spans[p].Trace == "" {
			spans[p].Trace = spans[i].Trace
		}
	}
}
