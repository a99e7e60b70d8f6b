package wire

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/deliver"
	"repro/internal/fabcrypto"
	"repro/internal/identity"
	"repro/internal/service"
)

// ClientOptions configure a wire client connection.
type ClientOptions struct {
	// Identity, when set together with ServerKey, enables TLS: the
	// client presents a certificate derived from the identity's key and
	// pins the server's leaf certificate to ServerKey.
	Identity *identity.Identity
	// ServerKey is the fabcrypto public key the server's TLS leaf
	// certificate must speak for.
	ServerKey fabcrypto.PublicKey
	// MaxFrame bounds frame payloads; 0 selects DefaultMaxFrame.
	MaxFrame int
	// DialTimeout bounds the TCP (and TLS) dial; 0 means 10s.
	DialTimeout time.Duration
}

// Client is one multiplexed wire connection: any number of concurrent
// unary calls and event streams share it, demultiplexed by stream ID.
type Client struct {
	cn *conn

	mu      sync.Mutex
	next    uint64
	calls   map[uint64]*pendingCall
	streams map[uint64]*eventStream
	rpc     map[string]*RPCStat
	closed  bool
}

// pendingCall is a registered unary waiter (or a stream's ACK waiter).
type pendingCall struct {
	ch     chan respMsg
	method string
}

// respMsg hands a response from the read loop to its waiter together
// with the pooled payload buffer the response body aliases; the waiter
// releases the buffer after decoding.
type respMsg struct {
	resp    *response
	payload []byte
}

// RPCStat aggregates one method's traffic as seen by a client: calls
// (or stream opens), framed bytes out and framed bytes in (responses
// and events, including batch frames).
type RPCStat struct {
	Calls    uint64 `json:"calls"`
	BytesOut uint64 `json:"bytes_out"`
	BytesIn  uint64 `json:"bytes_in"`
}

// Dial connects to a wire server. With TLS material in opts the
// connection is encrypted and the server's identity pinned; otherwise
// it is plaintext (loopback benchmarks).
func Dial(addr string, opts ClientOptions) (*Client, error) {
	maxFrame := opts.MaxFrame
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	var nc net.Conn
	var err error
	if opts.Identity != nil && len(opts.ServerKey) > 0 {
		cert, cerr := opts.Identity.TLSCertificate()
		if cerr != nil {
			return nil, fmt.Errorf("wire: client tls: %w", cerr)
		}
		dialer := &net.Dialer{Timeout: timeout}
		nc, err = tls.DialWithDialer(dialer, "tcp", addr, &tls.Config{
			Certificates: []tls.Certificate{cert},
			// Trust is established by pinning the leaf key, not by
			// walking a CA chain — the consortium has no TLS PKI.
			InsecureSkipVerify:    true,
			VerifyPeerCertificate: fabcrypto.VerifyPinnedKey(opts.ServerKey),
			MinVersion:            tls.VersionTLS13,
		})
	} else {
		nc, err = net.DialTimeout("tcp", addr, timeout)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := &Client{
		cn:      newConn(nc, maxFrame),
		calls:   make(map[uint64]*pendingCall),
		streams: make(map[uint64]*eventStream),
		rpc:     make(map[string]*RPCStat),
	}
	go c.readLoop()
	return c, nil
}

// Close shuts the connection down; in-flight calls fail with
// ErrConnClosed.
func (c *Client) Close() { c.cn.close(nil); c.fail(ErrConnClosed) }

// RPCStats returns a snapshot of per-method traffic over this client.
func (c *Client) RPCStats() map[string]RPCStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]RPCStat, len(c.rpc))
	for m, s := range c.rpc {
		out[m] = *s
	}
	return out
}

func (c *Client) rpcStatLocked(method string) *RPCStat {
	s := c.rpc[method]
	if s == nil {
		s = &RPCStat{}
		c.rpc[method] = s
	}
	return s
}

// noteOut records one outbound request of framed size n for method.
func (c *Client) noteOut(method string, n int) {
	c.mu.Lock()
	s := c.rpcStatLocked(method)
	s.Calls++
	s.BytesOut += uint64(headerSize + n + trailerSize)
	c.mu.Unlock()
}

// noteInLocked attributes one inbound frame of payload size n.
func (c *Client) noteInLocked(method string, n int) {
	if method == "" {
		return
	}
	c.rpcStatLocked(method).BytesIn += uint64(headerSize + n + trailerSize)
}

// readLoop demultiplexes inbound frames to call waiters and streams.
func (c *Client) readLoop() {
	for {
		f, err := c.cn.read()
		if err != nil {
			c.cn.close(err)
			c.fail(c.cn.closeErr())
			return
		}
		switch f.Type {
		case ftResponse:
			var resp response
			if err := unmarshalBody(f.Payload, &resp); err != nil {
				putBuf(f.Payload)
				c.cn.close(fmt.Errorf("%w: response body: %v", ErrCorrupt, err))
				c.fail(c.cn.closeErr())
				return
			}
			c.dispatchResponse(f.Stream, &resp, f.Payload)
		case ftEvent, ftEvents:
			if !c.dispatchEventFrame(f) {
				c.fail(c.cn.closeErr())
				return
			}
		default:
			// Servers never send requests or cancels; a frame of that
			// type here means the peer is not speaking the protocol.
			putBuf(f.Payload)
			c.cn.close(fmt.Errorf("%w: unexpected frame type %d from server", ErrCorrupt, f.Type))
			c.fail(c.cn.closeErr())
			return
		}
	}
}

func (c *Client) dispatchResponse(stream uint64, resp *response, payload []byte) {
	c.mu.Lock()
	if pc, ok := c.calls[stream]; ok {
		delete(c.calls, stream)
		c.noteInLocked(pc.method, len(payload))
		c.mu.Unlock()
		pc.ch <- respMsg{resp: resp, payload: payload}
		return
	}
	es := c.streams[stream]
	if es != nil {
		c.noteInLocked(es.method, len(payload))
		if !resp.More {
			delete(c.streams, stream)
		}
	}
	c.mu.Unlock()
	if es != nil && !resp.More {
		// Terminal response: the stream ended server-side.
		es.finish(decodeError(resp.Err))
	}
	putBuf(payload)
}

// dispatchEventFrame routes an ftEvent or ftEvents frame to its stream;
// false poisons the connection (decode failure).
func (c *Client) dispatchEventFrame(f frame) bool {
	c.mu.Lock()
	es := c.streams[f.Stream]
	if es != nil {
		c.noteInLocked(es.method, len(f.Payload))
	}
	c.mu.Unlock()
	if es == nil {
		putBuf(f.Payload) // events racing a local Close; drop
		return true
	}
	evs, err := decodeEventFrame(f)
	putBuf(f.Payload)
	if err != nil {
		c.cn.close(fmt.Errorf("%w: event body: %v", ErrCorrupt, err))
		return false
	}
	for _, ev := range evs {
		if es.push(ev) {
			continue
		}
		// Consumer is not draining: evict it, mirroring the deliver
		// service's slow-consumer policy, and tell the server to stop.
		// Remaining events of a batch are dropped with the stream.
		c.mu.Lock()
		delete(c.streams, f.Stream)
		c.mu.Unlock()
		es.finish(deliver.ErrSlowConsumer)
		c.cn.send(frame{Type: ftCancel, Stream: f.Stream})
		break
	}
	return true
}

// decodeEventFrame decodes the deliver events of an ftEvent or ftEvents
// frame, in stream order. Decoded events own their memory (nothing
// aliases the frame payload).
func decodeEventFrame(f frame) ([]deliver.Event, error) {
	if f.Type == ftEvent {
		var ev event
		if err := unmarshalBody(f.Payload, &ev); err != nil {
			return nil, err
		}
		return []deliver.Event{ev.decode()}, nil
	}
	r := &binReader{b: f.Payload}
	n := r.uvarint()
	if r.err != nil || n > uint64(r.remaining()) {
		r.fail("event batch count")
		return nil, r.err
	}
	out := make([]deliver.Event, 0, n)
	for i := uint64(0); i < n; i++ {
		size := r.uvarint()
		if r.err != nil || size > uint64(r.remaining()) {
			r.fail("event batch item")
			return nil, r.err
		}
		var ev event
		if err := unmarshalBody(r.take(int(size)), &ev); err != nil {
			return nil, err
		}
		out = append(out, ev.decode())
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// fail terminates every outstanding call and stream.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	calls, streams := c.calls, c.streams
	c.calls, c.streams = map[uint64]*pendingCall{}, map[uint64]*eventStream{}
	c.mu.Unlock()
	for _, pc := range calls {
		pc.ch <- respMsg{resp: &response{Err: &WireError{Code: codeInternal, Message: err.Error()}}}
	}
	for _, es := range streams {
		es.finish(err)
	}
}

// newRequest marshals a request frame for method with the given body,
// returning the pooled payload.
func (c *Client) newRequest(ctx context.Context, method string, body any) ([]byte, error) {
	b, err := marshalBody(body)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal %s request: %w", method, err)
	}
	req := request{Method: method, Body: b}
	if dl, ok := ctx.Deadline(); ok {
		req.Deadline = dl.UnixNano()
	}
	payload, err := marshalBody(&req)
	putBuf(b)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal %s request: %w", method, err)
	}
	return payload, nil
}

// Call performs one unary RPC: request out, single response in. The
// context's deadline travels with the request; cancellation sends an
// ftCancel so the server abandons the handler.
func (c *Client) Call(ctx context.Context, method string, in, out any) error {
	payload, err := c.newRequest(ctx, method, in)
	if err != nil {
		return err
	}
	ch := make(chan respMsg, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		putBuf(payload)
		return ErrConnClosed
	}
	c.next++
	id := c.next
	c.calls[id] = &pendingCall{ch: ch, method: method}
	c.mu.Unlock()

	err = c.cn.send(frame{Type: ftRequest, Stream: id, Payload: payload})
	c.noteOut(method, len(payload))
	putBuf(payload)
	if err != nil {
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		return err
	}
	var msg respMsg
	select {
	case msg = <-ch:
	case <-ctx.Done():
		c.mu.Lock()
		_, inflight := c.calls[id]
		delete(c.calls, id)
		c.mu.Unlock()
		if inflight {
			c.cn.send(frame{Type: ftCancel, Stream: id})
			return ctx.Err()
		}
		// Response raced the cancellation; take it.
		msg = <-ch
	}
	defer putBuf(msg.payload)
	if msg.resp.Err != nil {
		return decodeError(msg.resp.Err)
	}
	if out != nil && len(msg.resp.Body) > 0 {
		if err := unmarshalBody(msg.resp.Body, out); err != nil {
			return fmt.Errorf("wire: unmarshal %s response: %w", method, err)
		}
	}
	return nil
}

// Stream opens an event stream. It returns once the server acknowledged
// the subscription (a response with More set), so anything ordered
// after Stream returns is observed by the stream — the registration-
// before-ordering guarantee commit waiters depend on.
func (c *Client) Stream(ctx context.Context, method string, in any) (service.Stream, error) {
	payload, err := c.newRequest(ctx, method, in)
	if err != nil {
		return nil, err
	}
	ack := make(chan respMsg, 1)
	es := newEventStream(c, method)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		putBuf(payload)
		return nil, ErrConnClosed
	}
	c.next++
	id := c.next
	es.id = id
	c.calls[id] = &pendingCall{ch: ack, method: method} // the ACK arrives as a response on the same stream
	// Register the stream before the request leaves: a fast handler's
	// events (and terminal response) can arrive right behind the ACK,
	// and the read loop must find somewhere to put them.
	c.streams[id] = es
	c.mu.Unlock()

	deregister := func() {
		c.mu.Lock()
		delete(c.calls, id)
		delete(c.streams, id)
		c.mu.Unlock()
	}
	err = c.cn.send(frame{Type: ftRequest, Stream: id, Payload: payload})
	c.noteOut(method, len(payload))
	putBuf(payload)
	if err != nil {
		deregister()
		return nil, err
	}
	var msg respMsg
	select {
	case msg = <-ack:
	case <-ctx.Done():
		c.mu.Lock()
		_, inflight := c.calls[id]
		c.mu.Unlock()
		if inflight {
			deregister()
			c.cn.send(frame{Type: ftCancel, Stream: id})
			return nil, ctx.Err()
		}
		msg = <-ack
	}
	defer putBuf(msg.payload)
	if msg.resp.Err != nil {
		deregister()
		return nil, decodeError(msg.resp.Err)
	}
	if !msg.resp.More {
		deregister()
		return nil, fmt.Errorf("%w: stream %s acknowledged without More", ErrCorrupt, method)
	}
	return es, nil
}

// eventStream is the client side of a deliver stream: a buffered event
// channel fed by the read loop, satisfying service.Stream.
type eventStream struct {
	c      *Client
	id     uint64
	method string
	ch     chan deliver.Event

	mu     sync.Mutex
	err    error
	closed bool
}

// streamBuffer matches deliver.DefaultBufferSize: the wire stream adds
// one more bounded stage to the same slow-consumer policy.
const streamBuffer = 1024

func newEventStream(c *Client, method string) *eventStream {
	return &eventStream{c: c, method: method, ch: make(chan deliver.Event, streamBuffer)}
}

// push enqueues an event without blocking; false means the buffer is
// full and the consumer must be evicted (the read loop cannot block, or
// one stalled stream would freeze every call on the connection). It
// holds es.mu across the send so a concurrent finish (which closes the
// channel under the same mutex) cannot race it into a send-on-closed
// panic; events racing a close are dropped.
func (es *eventStream) push(ev deliver.Event) bool {
	if ev == nil {
		return true
	}
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.closed {
		return true
	}
	select {
	case es.ch <- ev:
		return true
	default:
		return false
	}
}

// finish records the terminal error and closes the event channel, under
// the same mutex push sends under.
func (es *eventStream) finish(err error) {
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.closed {
		return
	}
	es.closed = true
	if err != nil && es.err == nil {
		es.err = err
	}
	close(es.ch)
}

// Events returns the ordered event channel; it closes when the stream
// ends.
func (es *eventStream) Events() <-chan deliver.Event { return es.ch }

// Err reports why the stream ended; nil while live or after a clean
// Close.
func (es *eventStream) Err() error {
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.err == deliver.ErrClosed {
		return nil
	}
	return es.err
}

// Close cancels the stream server-side and releases it. Idempotent.
func (es *eventStream) Close() {
	es.mu.Lock()
	if es.closed {
		es.mu.Unlock()
		return
	}
	es.mu.Unlock()
	es.c.mu.Lock()
	delete(es.c.streams, es.id)
	es.c.mu.Unlock()
	es.c.cn.send(frame{Type: ftCancel, Stream: es.id})
	es.finish(nil)
}
