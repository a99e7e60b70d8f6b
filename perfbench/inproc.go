package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/chaincode"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/orderer"
	"repro/internal/peer"
	"repro/internal/service"
)

// inprocConfig describes one in-process network.
type inprocConfig struct {
	orgs      []string
	security  core.SecurityConfig
	def       *chaincode.Definition
	impl      func() chaincode.Chaincode
	clients   int // gateway connections, one per org from the first
	batchSize int
	seed      int64
}

// inprocNet is a network assembled from the same public constructors,
// in the same order, as network.New, so the traced run can wrap each
// peer's delivery handler around peer.CommitBlock. With a nil tracer
// nothing is wrapped and the program is the one network.New builds.
type inprocNet struct {
	orderer  *orderer.Service
	peers    []*peer.Peer // sorted by org
	gws      []*gateway.Gateway
	baseSubs int
	// storageDir holds the peers' durable stores, one directory per
	// peer name; empty without a durable backend.
	storageDir string

	mu         sync.Mutex
	commitErrs []error
}

func buildInproc(cfg inprocConfig, tr *tracer) (*inprocNet, error) {
	cas := make(map[string]*identity.CA, len(cfg.orgs))
	var orgCfgs []channel.OrgConfig
	for _, org := range cfg.orgs {
		ca, err := identity.NewCA(org)
		if err != nil {
			return nil, err
		}
		cas[org] = ca
		orgCfgs = append(orgCfgs, channel.OrgConfig{Name: org, CAPub: ca.PublicKey()})
	}
	ch := channel.NewConfig("c1", orgCfgs...)
	gnet := gossip.NewNetwork()
	n := &inprocNet{orderer: orderer.New(orderer.Config{
		BatchSize: cfg.batchSize,
		Seed:      cfg.seed,
	})}
	verifier := ch.Verifier()

	for _, org := range cfg.orgs {
		peerID, err := cas[org].Issue("peer0."+org, identity.RolePeer)
		if err != nil {
			return nil, n.fail(err)
		}
		p, err := peer.New(peer.Config{Identity: peerID, Channel: ch, Gossip: gnet, Security: cfg.security})
		if err != nil {
			return nil, n.fail(err)
		}
		n.peers = append(n.peers, p)
		n.orderer.RegisterDelivery(n.commitHandler(p, tr))
	}
	for _, p := range n.peers {
		n.baseSubs += p.Deliver().SubscriberCount()
	}

	peers := service.AsPeers(n.peers)
	var ord service.Orderer = n.orderer
	if tr != nil {
		for i, p := range n.peers {
			peers[i] = tracedPeer{Peer: p, tr: tr}
		}
		ord = tracedOrderer{Service: n.orderer, tr: tr}
	}
	for i, org := range cfg.orgs {
		if i == cfg.clients {
			break
		}
		clientID, err := cas[org].Issue("client0."+org, identity.RoleClient)
		if err != nil {
			return nil, n.fail(err)
		}
		if tr != nil {
			name := n.peers[i].Name()
			n.peers[i].OnCommit(func(_ uint64, txID string, _ ledger.ValidationCode) {
				tr.committed.Store(name+"/"+txID, tr.now())
			})
		}
		n.gws = append(n.gws, gateway.Connect(clientID, gateway.Options{
			Verifier:   verifier,
			Orderer:    ord,
			Security:   cfg.security,
			CommitPeer: peers[i],
		}, peers...))
	}
	for _, p := range n.peers {
		if err := p.ApproveDefinition(cfg.def); err != nil {
			return nil, n.fail(err)
		}
		p.InstallChaincode(cfg.def.Name, cfg.impl())
	}
	return n, nil
}

func (n *inprocNet) fail(err error) error {
	n.close()
	return fmt.Errorf("build network: %w", err)
}

// commitHandler is the orderer's delivery handler for one peer.
func (n *inprocNet) commitHandler(p *peer.Peer, tr *tracer) orderer.BlockHandler {
	return func(b *ledger.Block) {
		var id uint64
		var start int64
		if tr != nil {
			id, start = tr.begin()
		}
		if err := p.CommitBlock(b); err != nil {
			n.mu.Lock()
			n.commitErrs = append(n.commitErrs, fmt.Errorf("%s: commit block %d: %w", p.Name(), b.Header.Number, err))
			n.mu.Unlock()
		}
		if tr != nil {
			tr.end(id, 0, start, "peer.commit_block", fmt.Sprintf("block-%d", b.Header.Number), p.Name())
		}
	}
}

func (n *inprocNet) procs() procSet { return procSet{self: true} }

func (n *inprocNet) clients() []service.Gateway {
	out := make([]service.Gateway, len(n.gws))
	for i, g := range n.gws {
		out[i] = g
	}
	return out
}

// commitPeerName names the peer whose stream reports gateway i's
// commit statuses.
func (n *inprocNet) commitPeerName(i int) string { return n.peers[i].Name() }

// settle waits until every peer has committed every block cut so far.
func (n *inprocNet) settle(ctx context.Context) error {
	for {
		h := n.orderer.Height()
		behind := false
		for _, p := range n.peers {
			if p.Ledger().Height() < h {
				behind = true
			}
		}
		if !behind {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("peers did not reach orderer height %d: %w", h, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (n *inprocNet) errs() []error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]error(nil), n.commitErrs...)
}

// closeGateways releases every gateway's commit stream and returns the
// live deliver subscriptions left above the pre-gateway baseline.
func (n *inprocNet) closeGateways() int {
	for _, g := range n.gws {
		g.Close()
	}
	n.gws = nil
	subs := 0
	for _, p := range n.peers {
		subs += p.Deliver().SubscriberCount()
	}
	return subs - n.baseSubs
}

func (n *inprocNet) close() error {
	n.closeGateways()
	n.orderer.Stop()
	var first error
	for _, p := range n.peers {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tracedPeer records an endorser.endorse span around each endorsement.
type tracedPeer struct {
	*peer.Peer
	tr *tracer
}

func (p tracedPeer) Endorse(ctx context.Context, prop *ledger.Proposal) (*ledger.ProposalResponse, error) {
	id, start := p.tr.begin()
	resp, err := p.Peer.Endorse(ctx, prop)
	p.tr.end(id, spanFrom(ctx), start, "endorser.endorse", prop.TxID, p.Name())
	return resp, err
}

// tracedOrderer records orderer.order and orderer.flushtx spans.
type tracedOrderer struct {
	*orderer.Service
	tr *tracer
}

func (o tracedOrderer) Order(ctx context.Context, tx *ledger.Transaction) error {
	id, start := o.tr.begin()
	err := o.Service.Order(ctx, tx)
	o.tr.end(id, spanFrom(ctx), start, "orderer.order", tx.TxID, "")
	return err
}

func (o tracedOrderer) FlushTx(txID string) {
	parent, _ := o.tr.status.Load(txID)
	pid, _ := parent.(uint64)
	id, start := o.tr.begin()
	o.Service.FlushTx(txID)
	o.tr.end(id, pid, start, "orderer.flushtx", txID, "")
}

// layerSnap is one snapshot of every exported counter of the network.
type layerSnap struct {
	peerM   []map[string]uint64
	peerT   []map[string]metrics.HistogramSnapshot
	ordM    map[string]uint64
	ordT    map[string]metrics.HistogramSnapshot
	missing int // missing private-data records on every peer
}

func (n *inprocNet) snap() layerSnap {
	s := layerSnap{ordM: n.orderer.Metrics(), ordT: n.orderer.Timings()}
	for _, p := range n.peers {
		s.peerM = append(s.peerM, p.Metrics())
		s.peerT = append(s.peerT, p.Timings())
		s.missing += len(p.Validator().Missing())
	}
	return s
}

// peerSum returns the growth of a peer counter summed over peers.
func peerSum(a, b layerSnap, name string) float64 {
	var d float64
	for i := range b.peerM {
		d += float64(b.peerM[i][name]) - float64(a.peerM[i][name])
	}
	return d
}

// histDeltaUs returns the sum (in microseconds) and count of the
// observations added between two snapshots of one histogram.
func histDeltaUs(a, b metrics.HistogramSnapshot) (sumUs, count float64) {
	return us(b.Sum - a.Sum), float64(b.Count - a.Count)
}

// peerHistMeanUs averages a peer histogram's new observations over
// every peer.
func peerHistMeanUs(a, b layerSnap, name string) float64 {
	var sum, n float64
	for i := range b.peerT {
		s, c := histDeltaUs(a.peerT[i][name], b.peerT[i][name])
		sum, n = sum+s, n+c
	}
	return ratio(sum, n)
}
