package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/chaincode"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/pvtdata"
)

const (
	ccName   = "asset"
	collName = "pdc1"
)

// workload fixes everything about one traffic mix except the seed and
// the run length.
type workload struct {
	name string
	// rates is the ladder of offered operation rates (ops/s), lowest
	// first; the last rung is the overload rung, above today's ceiling.
	rates []float64
	// shares is the fraction of a pass (--seconds / passes) over which
	// each rung's operations are scheduled. A rung's operation count is
	// rate·share·pass seconds: a count, not a duration, so every commit
	// compared across runs happens at the same chain height.
	shares []float64
	// ref is the reference rung, below today's knee: commit and read
	// latency and every per-layer metric are taken there.
	ref int
	// limitMs is the commit p99 limit a rung must meet to count for
	// max_tps.
	limitMs float64
	// warmOps operations at warmRate finish every set-up.
	warmOps  int
	warmRate float64
	// Reads at readRate for readShare of a pass follow the reference
	// rung on workloads without reads in their mix; they read back what
	// the ladder wrote.
	readShare float64
	readRate  float64
	newGen    func(seed int64, clients int) generator
	inproc    *inprocConfig // nil: the multi-process cluster
}

// rungOps returns how many operations rung i schedules in a pass of
// passSeconds.
func (w *workload) rungOps(i int, passSeconds float64) int {
	return int(math.Round(w.rates[i] * w.shares[i] * passSeconds))
}

// readOps returns how many operations the read-back rung schedules.
func (w *workload) readOps(passSeconds float64) int {
	return int(math.Round(w.readRate * w.readShare * passSeconds))
}

// generator produces the seeded operation stream of one workload.
// Ladder rungs must be requested in order: later rungs read keys that
// earlier ones wrote.
type generator interface {
	warmup(n int) []op
	rung(n int) []op
	reads(n int) []op
}

// schedule spaces ops evenly at rate, in order.
func schedule(ops []op, rate float64) []op {
	gap := time.Duration(float64(time.Second) / rate)
	for i := range ops {
		ops[i].due = time.Duration(i) * gap
	}
	return ops
}

// --- zipf: public set of small values on Zipf-hot keys ---

type zipfGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	clients int
	seq     int
	written []string // distinct keys in first-write order
	seen    map[string]bool
}

func newZipfGen(seed int64, clients int) generator {
	rng := rand.New(rand.NewSource(seed))
	return &zipfGen{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, 1023), clients: clients, seen: map[string]bool{}}
}

func (g *zipfGen) next() op {
	key := fmt.Sprintf("key%04d", g.zipf.Uint64())
	value := fmt.Sprintf("v%d-%08x", g.seq, g.rng.Uint32())
	g.seq++
	if !g.seen[key] {
		g.seen[key] = true
		g.written = append(g.written, key)
	}
	return op{kind: opWrite, gw: g.rng.Intn(g.clients), fn: "set", args: []string{key, value}, key: key, value: value}
}

func (g *zipfGen) warmup(n int) []op { return g.rung(n) }

func (g *zipfGen) rung(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// reads picks keys the ladder wrote; the expected value is the last
// committed write, known only from the ledger after the run.
func (g *zipfGen) reads(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		key := g.written[g.rng.Intn(len(g.written))]
		ops[i] = op{kind: opRead, gw: g.rng.Intn(g.clients), fn: "get", args: []string{key}, key: key}
	}
	return ops
}

// --- pdc: private writes, reads and deletes on a member collection ---

// pdcMix is the exact share of each kind in every pdc rung.
var pdcMix = struct{ write, read float64 }{write: 0.40, read: 0.45}

type pdcGen struct {
	rng     *rand.Rand
	clients int
	seq     int
	live    []string          // keys written in earlier rungs and not deleted
	value   map[string]string // live key → its private value
	all     map[string]bool   // every private value ever written
}

func newPDCGen(seed int64, clients int) generator {
	return &pdcGen{rng: rand.New(rand.NewSource(seed)), clients: clients, value: map[string]string{}, all: map[string]bool{}}
}

// privateValue is an 18-digit integer: long enough that finding it in
// a block by accident is impossible, and an integer because the PDC
// contract checks values as integers.
func (g *pdcGen) privateValue() string {
	v := "8" + fmt.Sprintf("%0*d", privateValueLen-1, g.rng.Int63n(1e17))
	g.all[v] = true
	return v
}

const privateValueLen = 18

var members = []string{"peer0.org1", "peer0.org2"}

func (g *pdcGen) write() op {
	key := fmt.Sprintf("pk%06d", g.seq)
	g.seq++
	v := g.privateValue()
	return op{kind: opWrite, gw: g.rng.Intn(g.clients), fn: "setPrivateTransient", args: []string{key},
		transient: map[string][]byte{"value": []byte(v)}, endorsers: members, key: key, value: v}
}

func (g *pdcGen) warmup(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.write()
	}
	g.admit(ops)
	return ops
}

// admit makes a rung's writes readable by later rungs.
func (g *pdcGen) admit(ops []op) {
	for _, o := range ops {
		if o.kind == opWrite {
			g.live = append(g.live, o.key)
			g.value[o.key] = o.value
		}
	}
}

func (g *pdcGen) rung(n int) []op {
	writes := int(math.Round(float64(n) * pdcMix.write))
	reads := int(math.Round(float64(n) * pdcMix.read))
	deletes := n - writes - reads
	// Deletes never take more than half the readable keys; the warm-up
	// is sized so that the cap does not bind.
	if lim := len(g.live) / 2; deletes > lim {
		writes += deletes - lim
		deletes = lim
	}
	kinds := make([]opKind, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i < writes:
			kinds = append(kinds, opWrite)
		case i < writes+reads:
			kinds = append(kinds, opRead)
		default:
			kinds = append(kinds, opDelete)
		}
	}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	// Deletes take their keys out of the live set first, so no read in
	// this rung targets a key a concurrent delete removes.
	doomed := make([]string, 0, deletes)
	for i := 0; i < deletes; i++ {
		j := g.rng.Intn(len(g.live))
		doomed = append(doomed, g.live[j])
		g.live[j] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
	}
	ops := make([]op, n)
	for i, k := range kinds {
		gw := g.rng.Intn(g.clients)
		switch k {
		case opWrite:
			ops[i] = g.write()
		case opRead:
			key := g.live[g.rng.Intn(len(g.live))]
			ops[i] = op{kind: opRead, gw: gw, fn: "readPrivate", args: []string{key},
				endorsers: []string{members[gw%len(members)]}, key: key, value: g.value[key]}
		case opDelete:
			key := doomed[0]
			doomed = doomed[1:]
			// The claimed value is a constant: the contract installed
			// here has no delete constraint, and the real value must
			// never appear in a transaction.
			ops[i] = op{kind: opDelete, gw: gw, fn: "delPrivate", args: []string{key, "0"},
				endorsers: members, key: key}
			delete(g.value, key)
		}
	}
	g.admit(ops)
	return ops
}

func (g *pdcGen) reads(int) []op { return nil }

// --- wire-large: public set of 16 KiB values on unique keys ---

const largeValueBytes = 16 << 10

type largeGen struct {
	rng     *rand.Rand
	clients int
	seq     int
	written []op
}

func newLargeGen(seed int64, clients int) generator {
	return &largeGen{rng: rand.New(rand.NewSource(seed)), clients: clients}
}

func (g *largeGen) next() op {
	key := "large" + strconv.Itoa(g.seq)
	g.seq++
	b := make([]byte, largeValueBytes)
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := range b {
		b[i] = letters[g.rng.Intn(len(letters))]
	}
	return op{kind: opWrite, gw: g.rng.Intn(g.clients), fn: "set", args: []string{key, string(b)}, key: key, value: string(b)}
}

func (g *largeGen) warmup(n int) []op { return g.batch(n, false) }
func (g *largeGen) rung(n int) []op   { return g.batch(n, true) }

func (g *largeGen) batch(n int, keep bool) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
		if keep {
			g.written = append(g.written, ops[i])
		}
	}
	return ops
}

// reads samples ladder writes and expects their values back.
func (g *largeGen) reads(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		w := g.written[g.rng.Intn(len(g.written))]
		ops[i] = op{kind: opRead, gw: g.rng.Intn(g.clients), fn: "get", args: []string{w.key}, key: w.key, value: w.value}
	}
	return ops
}

// --- the workload table ---

func publicDef() *chaincode.Definition {
	return &chaincode.Definition{Name: ccName, Version: "1.0"}
}

func pdcDef() *chaincode.Definition {
	return &chaincode.Definition{Name: ccName, Version: "1.0", Collections: []pvtdata.CollectionConfig{{
		Name:              collName,
		MemberPolicy:      "OR(org1.member, org2.member)",
		RequiredPeerCount: 1,
		MaxPeerCount:      1,
	}}}
}

var orgs = []string{"org1", "org2", "org3"}

func workloads() map[string]*workload {
	zipfSec := core.OriginalFabric()
	zipfSec.StorageBackend = "memory"
	pdcSec := core.DefendedFabric()
	pdcSec.StorageBackend = "memory"
	return map[string]*workload{
		"zipf": {
			name:    "zipf",
			rates:   []float64{150, 300, 2500},
			shares:  []float64{0.45, 0.15, 0.12},
			ref:     0,
			limitMs: 250,
			warmOps: 300, warmRate: 300,
			readShare: 0.15, readRate: 600,
			newGen: newZipfGen,
			inproc: &inprocConfig{orgs: orgs, security: zipfSec, def: publicDef(),
				impl: func() chaincode.Chaincode { return contracts.NewPublicAsset() }, batchSize: 32},
		},
		"pdc": {
			name:    "pdc",
			rates:   []float64{200, 400, 4000},
			shares:  []float64{0.5, 0.15, 0.08},
			ref:     0,
			limitMs: 500,
			warmOps: 800, warmRate: 600,
			newGen: newPDCGen,
			inproc: &inprocConfig{orgs: orgs, security: pdcSec, def: pdcDef(),
				impl: func() chaincode.Chaincode {
					return contracts.NewPDC(contracts.PDCOptions{Collection: collName})
				}, batchSize: 32},
		},
		"wire-large": {
			name:    "wire-large",
			rates:   []float64{20, 40, 300},
			shares:  []float64{0.5, 0.2, 0.15},
			ref:     0,
			limitMs: 1000,
			warmOps: 60, warmRate: 60,
			readShare: 0.15, readRate: 100,
			newGen: newLargeGen,
		},
	}
}
