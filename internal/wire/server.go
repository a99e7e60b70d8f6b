package wire

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/identity"
)

// Body is a request body awaiting decoding. The underlying bytes are
// only valid until the handler returns (they live in a pooled frame
// buffer); Decode copies everything it extracts, so decoded structs are
// safe to retain.
type Body struct {
	data []byte
}

// Decode unmarshals the body into v.
func (b Body) Decode(v any) error { return unmarshalBody(b.data, v) }

// Len returns the body's encoded size in bytes.
func (b Body) Len() int { return len(b.data) }

// Handler serves one RPC method. Unary handlers return (result, error)
// and ignore the sink. Stream handlers call sink.Ack once registration
// succeeded, then sink.Send / sink.SendBatch for events, and return
// when the stream ends (their error, if any, travels in the terminal
// response). The context carries the caller's deadline and is canceled
// when the client sends ftCancel or the connection drops.
type Handler func(ctx context.Context, body Body, sink *Sink) (any, error)

// ServerOptions configure a wire server.
type ServerOptions struct {
	// Identity, when set, enables TLS with a self-signed certificate
	// over the identity's key; clients pin its public key.
	Identity *identity.Identity
	// MaxFrame bounds frame payloads; 0 selects DefaultMaxFrame.
	MaxFrame int
}

// Server listens on one TCP address and serves registered RPC methods.
// One server typically fronts one component (a peer, the orderer, a
// gateway); cmd/pdcnet runs one per process.
type Server struct {
	handlers map[string]Handler
	maxFrame int
	tlsConf  *tls.Config

	mu  sync.Mutex
	ln  net.Listener
	wg  sync.WaitGroup
	err error
	// quit closes when Close is called; per-connection loops watch it.
	quit   chan struct{}
	closed bool
}

// NewServer creates an empty server; register methods with Handle, then
// call Listen.
func NewServer(opts ServerOptions) (*Server, error) {
	s := &Server{
		handlers: make(map[string]Handler),
		maxFrame: opts.MaxFrame,
		quit:     make(chan struct{}),
	}
	if s.maxFrame <= 0 {
		s.maxFrame = DefaultMaxFrame
	}
	if opts.Identity != nil {
		cert, err := opts.Identity.TLSCertificate()
		if err != nil {
			return nil, fmt.Errorf("wire: server tls: %w", err)
		}
		s.tlsConf = &tls.Config{
			Certificates: []tls.Certificate{cert},
			MinVersion:   tls.VersionTLS13,
		}
	}
	return s, nil
}

// Handle registers a method handler. Not safe to call after Listen.
func (s *Server) Handle(method string, h Handler) { s.handlers[method] = h }

// Listen binds addr (e.g. "127.0.0.1:7051") and starts accepting.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	if s.tlsConf != nil {
		ln = tls.NewListener(ln, s.tlsConf)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, tears down every connection and waits for
// handlers to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	close(s.quit)
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
			default:
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
			}
			return
		}
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

// serveConn runs one connection: a read loop dispatching requests to
// handler goroutines, a cancel registry keyed by stream ID, and the
// shared write queue.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	cn := newConn(nc, s.maxFrame)
	defer cn.close(nil)

	// cancels maps live stream IDs to their handler contexts' cancel
	// functions, so ftCancel (and connection teardown) aborts them.
	var mu sync.Mutex
	cancels := make(map[uint64]context.CancelFunc)

	// Watch for server shutdown.
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		select {
		case <-s.quit:
			cn.close(ErrConnClosed)
		case <-connDone:
		}
	}()

	// Teardown cancels every live handler before waiting on them: a
	// stream handler blocked on ctx.Done() only returns once canceled.
	var hwg sync.WaitGroup
	defer func() {
		mu.Lock()
		for _, cancel := range cancels {
			cancel()
		}
		mu.Unlock()
		hwg.Wait()
	}()
	for {
		f, err := cn.read()
		if err != nil {
			cn.close(err)
			return
		}
		switch f.Type {
		case ftCancel:
			mu.Lock()
			if cancel, ok := cancels[f.Stream]; ok {
				cancel()
			}
			mu.Unlock()
			putBuf(f.Payload)
		case ftRequest:
			var req request
			if err := unmarshalBody(f.Payload, &req); err != nil {
				putBuf(f.Payload)
				cn.close(fmt.Errorf("%w: request body: %v", ErrCorrupt, err))
				return
			}
			h, ok := s.handlers[req.Method]
			if !ok {
				s.reply(cn, f.Stream, nil, fmt.Errorf("wire: unknown method %q", req.Method))
				putBuf(f.Payload)
				continue
			}
			var ctx context.Context
			var cancel context.CancelFunc
			if req.Deadline != 0 {
				ctx, cancel = context.WithDeadline(context.Background(), time.Unix(0, req.Deadline))
			} else {
				ctx, cancel = context.WithCancel(context.Background())
			}
			mu.Lock()
			if _, live := cancels[f.Stream]; live {
				// Reusing a live stream ID would orphan the first
				// handler's cancel; the client is broken, drop it.
				mu.Unlock()
				cancel()
				putBuf(f.Payload)
				cn.close(fmt.Errorf("%w: stream %d reused while live", ErrCorrupt, f.Stream))
				return
			}
			cancels[f.Stream] = cancel
			mu.Unlock()
			hwg.Add(1)
			// The request's payload buffer (which req.Body may alias)
			// stays alive until the handler goroutine finishes, then
			// recycles.
			go func(stream uint64, body []byte, payload []byte) {
				defer hwg.Done()
				defer putBuf(payload)
				defer func() {
					mu.Lock()
					delete(cancels, stream)
					mu.Unlock()
					cancel()
				}()
				sink := &Sink{cn: cn, stream: stream}
				result, err := h(ctx, Body{data: body}, sink)
				if sink.acked {
					// Stream: terminal response ends it.
					sink.end(err)
					return
				}
				s.reply(cn, stream, result, err)
			}(f.Stream, req.Body, f.Payload)
		default:
			// Clients never send responses or events.
			putBuf(f.Payload)
			cn.close(fmt.Errorf("%w: unexpected frame type %d from client", ErrCorrupt, f.Type))
			return
		}
	}
}

// reply sends a unary response; a result the codec cannot encode
// travels as the call's error.
func (s *Server) reply(cn *conn, stream uint64, result any, err error) {
	resp := response{}
	if err != nil {
		resp.Err = encodeError(err)
	} else if result != nil {
		b, merr := marshalBody(result)
		if merr != nil {
			resp.Err = encodeError(fmt.Errorf("wire: marshal response: %w", merr))
		} else {
			resp.Body = b
		}
	}
	sendResponse(cn, stream, &resp)
	putBuf(resp.Body)
}

// sendResponse delivers a response, salvaging send failures: a dropped
// response would leave the client's Call blocked forever, so on failure
// (typically ErrFrameTooLarge for an oversized body) it retries with a
// small internal-error response, and failing that closes the connection
// so the client's read loop fails every pending call.
func sendResponse(cn *conn, stream uint64, resp *response) {
	payload, err := marshalBody(resp)
	if err == nil {
		err = cn.send(frame{Type: ftResponse, Stream: stream, Payload: payload})
		putBuf(payload)
		if err == nil {
			return
		}
	}
	cause := err
	fallback, merr := marshalBody(&response{Err: &WireError{
		Code:    codeInternal,
		Message: fmt.Sprintf("wire: send response: %v", cause),
	}})
	if merr == nil {
		err := cn.send(frame{Type: ftResponse, Stream: stream, Payload: fallback})
		putBuf(fallback)
		if err == nil {
			return
		}
	}
	cn.close(fmt.Errorf("wire: send response: %w", cause))
}

// Sink is a stream handler's outbound side: Ack acknowledges the
// subscription (the client's Stream call returns), Send and SendBatch
// emit events.
type Sink struct {
	cn     *conn
	stream uint64
	acked  bool
}

// Ack confirms the subscription is registered. Events sent after Ack
// are guaranteed to include everything from the subscription's start
// point — the client blocks on this before ordering transactions whose
// commits it must observe.
func (k *Sink) Ack() error {
	k.acked = true
	payload, err := marshalBody(&response{More: true})
	if err != nil {
		return err
	}
	err = k.cn.send(frame{Type: ftResponse, Stream: k.stream, Payload: payload})
	putBuf(payload)
	return err
}

// Send emits one stream event.
func (k *Sink) Send(ev event) error {
	payload, err := eventPayload(&ev)
	if err != nil {
		return err
	}
	// Event payloads are memoized on the event (shared across
	// subscribers), never pooled — do not release.
	return k.cn.send(frame{Type: ftEvent, Stream: k.stream, Payload: payload})
}

// eventBatchMax bounds how many events coalesce into one ftEvents
// frame. 32 keeps a worst-case batch of full blocks well under
// DefaultMaxFrame for default batch sizes while amortizing per-frame
// overhead during catch-up replay.
const eventBatchMax = 32

// SendBatch emits a batch of events as one multi-event frame, in order.
// A batch that would exceed the frame bound degrades to per-event
// frames (whose own size errors then surface normally).
func (k *Sink) SendBatch(evs []event) error {
	if len(evs) == 0 {
		return nil
	}
	if len(evs) == 1 {
		return k.Send(evs[0])
	}
	payloads := make([][]byte, len(evs))
	total := 0
	for i := range evs {
		p, err := eventPayload(&evs[i])
		if err != nil {
			return err
		}
		payloads[i] = p
		total += len(p) + 8 // per-event length prefix headroom
	}
	if headerSize+total+trailerSize > k.cn.maxFrame {
		for i := range evs {
			if err := k.Send(evs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	buf := getBuf(total + 2)
	buf = appendUvarint(buf, uint64(len(payloads)))
	for _, p := range payloads {
		buf = appendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	err := k.cn.send(frame{Type: ftEvents, Stream: k.stream, Payload: buf})
	putBuf(buf)
	if err == nil {
		stats.batchFrames.Add(1)
		stats.batchedEvents.Add(uint64(len(evs)))
	}
	return err
}

// end sends the terminal response of an acked stream.
func (k *Sink) end(err error) {
	resp := response{}
	if err != nil && !errors.Is(err, context.Canceled) {
		resp.Err = encodeError(err)
	}
	sendResponse(k.cn, k.stream, &resp)
}

// eventPayload returns the encoded event-envelope payload for ev,
// memoized on the underlying deliver event: a block fanning out to N
// remote subscribers is encoded once, not N times.
func eventPayload(ev *event) ([]byte, error) {
	encode := func() []byte {
		data, err := marshalBody(ev)
		if err != nil {
			return nil
		}
		// The memo retains the bytes indefinitely; make sure they are
		// not a pooled buffer (marshalBody pools).
		out := make([]byte, len(data))
		copy(out, data)
		putBuf(data)
		return out
	}
	var payload []byte
	switch {
	case ev.Block != nil:
		payload = ev.Block.Encoded(encode)
	case ev.Status != nil:
		payload = ev.Status.Encoded(encode)
	default:
		payload = encode()
	}
	if payload == nil {
		return nil, fmt.Errorf("wire: marshal event")
	}
	return payload, nil
}
