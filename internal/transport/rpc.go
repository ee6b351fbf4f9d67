package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/codec"
	"dynamast/internal/obs"
)

// This file implements the real networked RPC used by multi-process
// deployments (cmd/dynamastd, examples/cluster): a length-prefixed binary
// request/response protocol with per-connection multiplexing. The paper
// uses Apache Thrift (compact protocol) for the same role; this layer
// mirrors it with the internal/codec wire format.
//
// Wire shape: every message is [u32 length][payload], little-endian, where
// the payload is a codec frame — magic+version header, a flags byte
// (response / has-error), the call id, the method name, an optional error
// string, and the request/response body as the frame's tail. Every body is
// a codec.Message: Handle and the Client.Call methods accept nothing else,
// so a body type without a wire schema does not compile.
//
// Buffer discipline: encode scratch and read buffers come from the codec
// pool. A read buffer is owned by the message decoded from it and is
// returned to the pool once the body has been consumed — on the server,
// after the handler returns (handlers must copy what they keep, which the
// codec's decode rule already guarantees); on the client, after the reply
// is decoded.

// frame is the wire unit, used for both requests and responses. Trace/Span
// carry the distributed trace context of sampled requests; both zero means
// unsampled, and the frame encoding is then byte-identical to the
// pre-tracing wire format (the context rides behind a reserved flags bit).
type frame struct {
	ID     uint64
	Method string
	Body   []byte
	Err    string
	Resp   bool
	Trace  uint64
	Span   uint64
}

const (
	rpcFlagResp  = 1 << 0
	rpcFlagErr   = 1 << 1
	rpcFlagTrace = 1 << 2

	// maxRPCFrame bounds a message's claimed length so a corrupt or
	// malicious length prefix cannot ask for an absurd allocation.
	maxRPCFrame = 64 << 20

	// rpcReadBuffer sizes each connection's buffered reader.
	rpcReadBuffer = 64 << 10
)

// appendFrame appends f's codec payload (header, flags, id, method,
// optional error, body tail) to buf.
func appendFrame(buf []byte, f *frame) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	var flags byte
	if f.Resp {
		flags |= rpcFlagResp
	}
	if f.Err != "" {
		flags |= rpcFlagErr
	}
	if f.Trace != 0 {
		flags |= rpcFlagTrace
	}
	buf = append(buf, flags)
	buf = codec.AppendUvarint(buf, f.ID)
	buf = codec.AppendString(buf, f.Method)
	if f.Err != "" {
		buf = codec.AppendString(buf, f.Err)
	}
	if f.Trace != 0 {
		buf = codec.AppendTraceContext(buf, f.Trace, f.Span)
	}
	return append(buf, f.Body...)
}

// decodeFrame parses a codec payload into f. f.Body aliases payload — the
// caller keeps the backing buffer alive until the body is consumed.
func decodeFrame(payload []byte, f *frame) error {
	r := codec.NewReader(payload)
	flags := byte(r.Uvarint())
	f.ID = r.Uvarint()
	f.Method = r.String()
	f.Resp = flags&rpcFlagResp != 0
	if flags&rpcFlagErr != 0 {
		f.Err = r.String()
	} else {
		f.Err = ""
	}
	if flags&rpcFlagTrace != 0 {
		f.Trace, f.Span = r.TraceContext()
	} else {
		f.Trace, f.Span = 0, 0
	}
	f.Body = r.Tail()
	return r.Err()
}

// writeFrame serializes f with a length prefix and writes it to w in one
// call. The caller serializes writers (per-connection write mutex).
func writeFrame(w io.Writer, f *frame) error {
	bp := codec.GetBuf()
	buf := append((*bp)[:0], 0, 0, 0, 0) // length prefix placeholder
	start := time.Now()
	buf = appendFrame(buf, f)
	codec.RecordEncode(codec.SurfaceRPC, len(buf)-4, time.Since(start))
	if len(buf)-4 > maxRPCFrame {
		*bp = buf[:0]
		codec.PutBuf(bp)
		return fmt.Errorf("rpc: frame too large (%d bytes)", len(buf)-4)
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_, err := w.Write(buf)
	*bp = buf[:0]
	codec.PutBuf(bp)
	return err
}

// readFrame reads one length-prefixed message from br into a pooled buffer
// and decodes it into f. On success the returned buffer backs f.Body; the
// caller must codec.PutBuf it once the body is dead. On error the buffer
// has already been recycled.
func readFrame(br *bufio.Reader, f *frame) (*[]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxRPCFrame {
		return nil, fmt.Errorf("rpc: frame length %d exceeds limit", n)
	}
	bp := codec.GetBuf()
	buf := *bp
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	*bp = buf
	if _, err := io.ReadFull(br, buf); err != nil {
		codec.PutBuf(bp)
		return nil, err
	}
	start := time.Now()
	err := decodeFrame(buf, f)
	codec.RecordDecode(codec.SurfaceRPC, int(n), time.Since(start))
	if err != nil {
		codec.PutBuf(bp)
		return nil, fmt.Errorf("rpc: bad frame: %w", err)
	}
	return bp, nil
}

// handler processes one request body, with the request's distributed trace
// context (zero for unsampled requests), and appends its response body to
// dst (which arrives empty with pooled capacity), returning the extended
// slice. The request body is only valid for the duration of the call;
// anything retained must be copied — which the codec's decode ownership
// rule provides for free.
type handler func(tc obs.SpanContext, req []byte, dst []byte) ([]byte, error)

// Server dispatches framed RPC requests to handlers registered with Handle
// and HandleTraced.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]handler
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]handler),
		conns:    make(map[net.Conn]struct{}),
	}
}

// register installs h for method. Registering after Serve starts is
// allowed.
func (s *Server) register(method string, h handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// ListenAndServe listens on addr and serves until Close. It returns once
// the listener is bound; serving continues in the background.
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn reads requests off one connection and hands each to a worker
// goroutine of that connection. A worker that finishes parks on the hand-off
// channel for the next request, so a client issuing one call at a time is
// served by one long-lived goroutine whose stack has already grown to what
// the handlers need. The reader starts another worker only when none is
// parked — every worker is busy — so concurrent requests on one connection
// still run concurrently; a worker that finishes while another is already
// parked exits. Replies carry the request's id and may leave in any order.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	c := &connWorkers{srv: s, conn: conn, work: make(chan request)}
	defer close(c.work) // releases the parked worker
	br := bufio.NewReaderSize(conn, rpcReadBuffer)
	for {
		var r request
		var err error
		if r.buf, err = readFrame(br, &r.frame); err != nil {
			return
		}
		if c.parked.CompareAndSwap(true, false) {
			c.work <- r
		} else {
			go c.run(r)
		}
	}
}

// request is one decoded request frame and the pooled buffer backing its body.
type request struct {
	frame frame
	buf   *[]byte
}

// connWorkers is the state one connection's reader and workers share.
type connWorkers struct {
	srv  *Server
	conn net.Conn
	wmu  sync.Mutex   // serialises response frames
	work chan request // reader to the parked worker; closed when the reader exits
	// parked is set by a worker about to receive from work and cleared by the
	// reader, which then owes that worker a request: at most one worker parks.
	parked atomic.Bool
}

// run serves r, then requests handed over by the reader for as long as this
// worker is the one parked.
func (c *connWorkers) run(r request) {
	for c.serve(r) {
		var ok bool
		if r, ok = <-c.work; !ok {
			return
		}
	}
}

// serve runs r's handler and writes the reply. It reports whether this worker
// parked: it tries to just before the reply leaves, not after, so the request
// a client sends on receiving that reply always finds it parked.
func (c *connWorkers) serve(r request) (parked bool) {
	req := &r.frame
	c.srv.mu.RLock()
	h := c.srv.handlers[req.Method]
	c.srv.mu.RUnlock()
	resp := frame{ID: req.ID, Method: req.Method, Resp: true}
	bodyBuf := codec.GetBuf()
	body := (*bodyBuf)[:0]
	var err error
	if h == nil {
		resp.Err = fmt.Sprintf("rpc: unknown method %q", req.Method)
	} else if body, err = h(obs.SpanContext{Trace: req.Trace, Span: req.Span}, req.Body, body); err != nil {
		resp.Err = err.Error()
	} else {
		resp.Body = body
	}
	// The handler has returned; the request body is dead.
	codec.PutBuf(r.buf)
	parked = c.parked.CompareAndSwap(false, true)
	c.wmu.Lock()
	_ = writeFrame(c.conn, &resp)
	c.wmu.Unlock()
	if body != nil {
		*bodyBuf = body[:0]
	}
	codec.PutBuf(bodyBuf)
	return parked
}

// Close stops the listener and closes all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Client is a multiplexing RPC client for one server connection. Safe for
// concurrent use.
type Client struct {
	conn net.Conn
	wmu  sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan callResult
	err     error
}

// callResult delivers either a response frame or a transport-level failure
// to a pending call. Keeping the failure as a typed error (rather than
// flattening it into frame.Err, which carries server-side error strings)
// lets retry logic distinguish connection loss from an application error
// whose text merely resembles one. buf, when non-nil, is the pooled read
// buffer backing resp.Body; the receiver recycles it after decoding.
type callResult struct {
	resp frame
	buf  *[]byte
	err  error
}

// Dial connects to an RPC server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan callResult),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, rpcReadBuffer)
	for {
		var resp frame
		bp, err := readFrame(br, &resp)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- callResult{resp: resp, buf: bp}
		} else {
			codec.PutBuf(bp) // call was abandoned; nobody will decode this
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- callResult{err: err}
	}
}

// ErrTimeout is returned (wrapped) when a call's context expires before the
// response arrives; the request may still execute at the server, so only
// idempotent methods should be retried after it.
var ErrTimeout = errors.New("rpc: call timed out")

// ErrConnLost is returned (wrapped) when the transport connection fails
// before a response arrives; like ErrTimeout, the request may still have
// executed at the server, so only idempotent methods should be retried
// after it. Server-side application errors cross the wire as strings and
// are never classified as connection loss, whatever their text.
var ErrConnLost = errors.New("rpc: connection lost")

// Call invokes method with the encoded arg (non-nil) and decodes the
// response into reply (which may be nil for methods without results).
// Equivalent to CallCtx with a background context (no deadline).
func (c *Client) Call(method string, arg, reply codec.Message) error {
	return c.CallCtx(context.Background(), method, arg, reply)
}

// CallCtx invokes method, honouring the context's deadline/cancellation: an
// expired context abandons the pending call (the late response frame is
// discarded by the read loop) and returns an error wrapping ErrTimeout and
// the context error.
func (c *Client) CallCtx(ctx context.Context, method string, arg, reply codec.Message) error {
	return c.CallTraced(ctx, obs.SpanContext{}, method, arg, reply)
}

// CallTraced is CallCtx carrying a distributed trace context: a sampled tc
// rides the request frame behind the trace flags bit, so the server-side
// handler can join its spans to the caller's trace. A zero tc leaves the
// frame byte-identical to an untraced call.
func (c *Client) CallTraced(ctx context.Context, tc obs.SpanContext, method string, arg, reply codec.Message) error {
	if err := ctx.Err(); err != nil {
		// Already cancelled or expired: do not send a request nobody awaits.
		return fmt.Errorf("rpc: %s: %w: %w", method, ErrTimeout, err)
	}
	bodyBuf := codec.GetBuf()
	body := arg.MarshalTo((*bodyBuf)[:0])
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		codec.PutBuf(bodyBuf)
		return err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan callResult, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := writeFrame(c.conn, &frame{ID: id, Method: method, Body: body, Trace: tc.Trace, Span: tc.Span})
	c.wmu.Unlock()
	*bodyBuf = body[:0]
	codec.PutBuf(bodyBuf)
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return fmt.Errorf("rpc: send %s: %w", method, err)
	}

	var res callResult
	select {
	case res = <-ch:
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// Drain a response that raced the cancellation.
		select {
		case res = <-ch:
		default:
			return fmt.Errorf("rpc: %s: %w: %w", method, ErrTimeout, ctx.Err())
		}
	}
	if res.err != nil {
		return res.err
	}
	if res.resp.Err != "" {
		err = errors.New(res.resp.Err)
	} else if reply != nil {
		err = reply.Unmarshal(res.resp.Body)
	}
	if res.buf != nil {
		codec.PutBuf(res.buf) // reply decoded (and copied); buffer is dead
	}
	return err
}

// Close closes the connection; in-flight calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(fmt.Errorf("%w: client closed", ErrConnLost))
	return err
}

// Handle registers a typed handler: the request body is decoded into a
// fresh Req and the returned Resp is encoded into the response, both
// through their binary wire schemas.
func Handle[Req any, PReq interface {
	*Req
	codec.Message
}, Resp codec.Message](s *Server, method string, fn func(PReq) (Resp, error)) {
	HandleTraced(s, method, func(_ obs.SpanContext, req PReq) (Resp, error) {
		return fn(req)
	})
}

// HandleTraced registers a typed handler that also receives the request's
// distributed trace context (zero when the caller did not sample).
func HandleTraced[Req any, PReq interface {
	*Req
	codec.Message
}, Resp codec.Message](s *Server, method string, fn func(obs.SpanContext, PReq) (Resp, error)) {
	s.register(method, func(tc obs.SpanContext, body, dst []byte) ([]byte, error) {
		req := PReq(new(Req))
		if err := req.Unmarshal(body); err != nil {
			return nil, fmt.Errorf("rpc: decode %s: %w", method, err)
		}
		resp, err := fn(tc, req)
		if err != nil {
			return nil, err
		}
		return resp.MarshalTo(dst), nil
	})
}
