package wire

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/deliver"
	"repro/internal/ledger"
	"repro/internal/rwset"
	"repro/internal/service"
	"repro/internal/snapshot"
)

// PeerClient speaks to a served peer and satisfies service.Peer, so a
// gateway (or reconciler) in another process uses it exactly like an
// in-process *peer.Peer.
type PeerClient struct {
	c    *Client
	info infoResponse
}

var _ service.Peer = (*PeerClient)(nil)

// NewPeerClient wraps an open connection to a peer server, fetching the
// peer's descriptor once so Name/Org/ChannelName answer locally.
func NewPeerClient(c *Client) (*PeerClient, error) {
	p := &PeerClient{c: c}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Call(ctx, "peer.info", nil, &p.info); err != nil {
		return nil, fmt.Errorf("wire: peer info: %w", err)
	}
	return p, nil
}

// Name returns the served peer's node name.
func (p *PeerClient) Name() string { return p.info.Name }

// Org returns the served peer's organization.
func (p *PeerClient) Org() string { return p.info.Org }

// ChannelName returns the channel the served peer serves.
func (p *PeerClient) ChannelName() string { return p.info.Channel }

// Close releases the underlying connection.
func (p *PeerClient) Close() { p.c.Close() }

// Endorse ships the proposal (transient map alongside, since proposal
// serialization excludes it) and returns the signed response.
func (p *PeerClient) Endorse(ctx context.Context, prop *ledger.Proposal) (*ledger.ProposalResponse, error) {
	var resp ledger.ProposalResponse
	err := p.c.Call(ctx, "peer.endorse", &endorseRequest{Proposal: prop, Transient: prop.Transient}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubscribeLive streams events for blocks committed after the call.
// Stream registration is acknowledged by the serving process before
// this returns — the ordering guarantee commit waiters rely on.
func (p *PeerClient) SubscribeLive() service.Stream {
	s, err := p.c.Stream(context.Background(), "peer.subscribe", &subscribeRequest{Live: true})
	if err != nil {
		return newDeadStream(err)
	}
	return s
}

// SubscribeFrom replays events from block number from, then follows
// live commits.
func (p *PeerClient) SubscribeFrom(from uint64) (service.Stream, error) {
	return p.c.Stream(context.Background(), "peer.subscribe", &subscribeRequest{From: from})
}

// FetchPrivateData pulls one transaction's private rwset of a
// collection — the reconciler's cross-process gossip substitute.
func (p *PeerClient) FetchPrivateData(ctx context.Context, txID, collection string) (*rwset.CollPvtRWSet, error) {
	var out *rwset.CollPvtRWSet
	if err := p.c.Call(ctx, "peer.pvt", &pvtRequest{TxID: txID, Collection: collection}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// PushPrivateData deposits a disseminated private set into the served
// peer's transient store — the cross-process leg of gossip
// dissemination at endorsement time.
func (p *PeerClient) PushPrivateData(ctx context.Context, set *rwset.TxPvtRWSet) error {
	return p.c.Call(ctx, "peer.pvtpush", set, nil)
}

// Info re-fetches the served peer's descriptor (height and state hash
// are point-in-time; cluster tests poll them for convergence).
func (p *PeerClient) Info(ctx context.Context) (*infoResponse, error) {
	var info infoResponse
	if err := p.c.Call(ctx, "peer.info", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Height returns the served peer's current chain height.
func (p *PeerClient) Height(ctx context.Context) (uint64, error) {
	info, err := p.Info(ctx)
	if err != nil {
		return 0, err
	}
	return info.Height, nil
}

// StateHash returns the served peer's world-state hash (hex).
func (p *PeerClient) StateHash(ctx context.Context) (string, error) {
	info, err := p.Info(ctx)
	if err != nil {
		return "", err
	}
	return info.StateHash, nil
}

// FetchSnapshot downloads a complete snapshot artifact from the served
// peer into dir (which must not exist yet): peer.snapshot.meta triggers
// an export and returns its manifest, peer.snapshot.chunks streams the
// chunk files in manifest order. Every byte lands verbatim, so the
// artifact's hashes — manifest self-hash, chunk SHA-256s, record CRCs —
// verify at InstallSnapshot exactly as they would on a local copy. The
// download is staged in dir+".partial" and published by rename, so a
// dropped connection never leaves a half-written artifact under dir.
func (p *PeerClient) FetchSnapshot(ctx context.Context, dir string) (*snapshot.Manifest, error) {
	fail := func(err error) (*snapshot.Manifest, error) {
		return nil, fmt.Errorf("wire: fetch snapshot: %w", err)
	}
	if _, err := os.Stat(dir); err == nil {
		return fail(fmt.Errorf("%s already exists", dir))
	}
	var meta snapshotMetaResponse
	if err := p.c.Call(ctx, "peer.snapshot.meta", nil, &meta); err != nil {
		return nil, err
	}
	// Parse (and self-hash-verify) before spending bandwidth on chunks.
	m, err := snapshot.ParseManifest(meta.Manifest)
	if err != nil {
		return fail(err)
	}
	tmp := dir + ".partial"
	if err := os.RemoveAll(tmp); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fail(err)
	}
	cleanup := func() { os.RemoveAll(tmp) }
	stream, err := p.c.Stream(ctx, "peer.snapshot.chunks", &snapshotChunksRequest{Export: meta.Export})
	if err != nil {
		cleanup()
		return nil, err
	}
	defer stream.Close()
	for i, ci := range m.Chunks {
		var chunk *SnapshotChunkEvent
		for chunk == nil {
			select {
			case ev, ok := <-stream.Events():
				if !ok {
					cleanup()
					return fail(fmt.Errorf("chunk stream ended at %d of %d: %w", i, len(m.Chunks), stream.Err()))
				}
				chunk, _ = ev.(*SnapshotChunkEvent)
			case <-ctx.Done():
				cleanup()
				return fail(ctx.Err())
			}
		}
		if chunk.Index != uint64(i) || chunk.Name != ci.Name {
			cleanup()
			return fail(fmt.Errorf("chunk %d: got %q (index %d), want %q", i, chunk.Name, chunk.Index, ci.Name))
		}
		if err := os.WriteFile(filepath.Join(tmp, ci.Name), chunk.Data, 0o644); err != nil {
			cleanup()
			return fail(err)
		}
	}
	// The manifest lands last: a .partial directory with a manifest is a
	// complete download.
	if err := os.WriteFile(filepath.Join(tmp, snapshot.ManifestName), meta.Manifest, 0o644); err != nil {
		cleanup()
		return fail(err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		cleanup()
		return fail(err)
	}
	return m, nil
}

// deadStream is returned when a SubscribeLive call fails — the
// interface has no error return, so the failure surfaces through Err()
// on an already-ended stream (gateway.SubmitAssembledAsync checks it
// right after subscribing).
type deadStream struct {
	err error
	ch  chan deliver.Event
}

func newDeadStream(err error) *deadStream {
	ch := make(chan deliver.Event)
	close(ch)
	return &deadStream{err: err, ch: ch}
}

func (d *deadStream) Events() <-chan deliver.Event { return d.ch }
func (d *deadStream) Err() error                   { return d.err }
func (d *deadStream) Close()                       {}

// OrdererClient speaks to a served orderer and satisfies
// service.Orderer.
type OrdererClient struct {
	c *Client
}

var _ service.Orderer = (*OrdererClient)(nil)

// NewOrdererClient wraps an open connection to an orderer server.
func NewOrdererClient(c *Client) *OrdererClient { return &OrdererClient{c: c} }

// Close releases the underlying connection.
func (o *OrdererClient) Close() { o.c.Close() }

// Order submits the transaction's canonical bytes and returns once the
// remote orderer accepted it into a cut block.
func (o *OrdererClient) Order(ctx context.Context, tx *ledger.Transaction) error {
	return o.c.Call(ctx, "order.submit", &orderRequest{Tx: tx.Bytes()}, nil)
}

// InPending reports whether the transaction sits in the remote
// orderer's current partial batch.
func (o *OrdererClient) InPending(txID string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var resp inPendingResponse
	if err := o.c.Call(ctx, "order.inpending", &txIDRequest{TxID: txID}, &resp); err != nil {
		return false
	}
	return resp.Pending
}

// FlushTx cuts the remote partial batch if it still holds the
// transaction.
func (o *OrdererClient) FlushTx(txID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	o.c.Call(ctx, "order.flushtx", &txIDRequest{TxID: txID}, nil)
}

// Blocks streams ordered blocks from number `from` — the peer
// processes' block-follow feed.
func (o *OrdererClient) Blocks(ctx context.Context, from uint64) (service.Stream, error) {
	return o.c.Stream(ctx, "order.blocks", &blocksRequest{From: from})
}

// GatewayClient speaks to a served gateway and satisfies
// service.Gateway: clients of a remote cluster submit through it.
type GatewayClient struct {
	c *Client
}

var _ service.Gateway = (*GatewayClient)(nil)

// NewGatewayClient wraps an open connection to a gateway server.
func NewGatewayClient(c *Client) *GatewayClient { return &GatewayClient{c: c} }

// Close releases the underlying connection.
func (g *GatewayClient) Close() { g.c.Close() }

// RPCStats exposes the underlying connection's per-method call and
// byte counters, so benchmarks can report wire cost per RPC.
func (g *GatewayClient) RPCStats() map[string]RPCStat { return g.c.RPCStats() }

// Evaluate runs a query through the remote gateway.
func (g *GatewayClient) Evaluate(ctx context.Context, req *service.InvokeRequest) ([]byte, error) {
	var resp evaluateResponse
	if err := g.c.Call(ctx, "gw.evaluate", req, &resp); err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// Submit drives the full endorse → order → commit-wait flow remotely.
func (g *GatewayClient) Submit(ctx context.Context, req *service.InvokeRequest) (*service.SubmitResult, error) {
	var res service.SubmitResult
	if err := g.c.Call(ctx, "gw.submit", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SubmitAsync endorses and orders remotely, returning a handle whose
// Status/Close round-trip to the serving gateway (the commit wait —
// and its deliver subscription — stay server-side).
func (g *GatewayClient) SubmitAsync(ctx context.Context, req *service.InvokeRequest) (service.Commit, error) {
	var resp submitAsyncResponse
	if err := g.c.Call(ctx, "gw.submitasync", req, &resp); err != nil {
		return nil, err
	}
	return &RemoteCommit{g: g, handle: resp.Handle, txID: resp.TxID}, nil
}

// RemoteCommit is a commit handle living in the serving gateway's
// process; it satisfies service.Commit.
type RemoteCommit struct {
	g      *GatewayClient
	handle uint64
	txID   string
}

var _ service.Commit = (*RemoteCommit)(nil)

// TxID returns the pending transaction's ID.
func (r *RemoteCommit) TxID() string { return r.txID }

// Status blocks until the remote commit wait resolves.
func (r *RemoteCommit) Status(ctx context.Context) (*service.SubmitResult, error) {
	var res service.SubmitResult
	if err := r.g.c.Call(ctx, "gw.status", &handleRequest{Handle: r.handle}, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Close releases the server-side handle. Idempotent.
func (r *RemoteCommit) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.g.c.Call(ctx, "gw.close", &handleRequest{Handle: r.handle}, nil)
}
