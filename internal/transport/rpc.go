package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
// codec's decode rule already guarantees); on the client, after the caller
// the reply belongs to has decoded it.
//
// Threading: no call is handed from one goroutine to another on its way
// through. On the server, the goroutine that reads a request serves it and
// writes the reply before it reads again (serverConn); on the client, the
// caller waiting for a reply reads the connection itself (Client). Each
// side falls back to more goroutines only when calls overlap on one
// connection.

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

	// A handler still running inline on a connection's read role after
	// rescueAfter, with another request waiting, loses the role to a new
	// goroutine; the server's watchdog checks every rescueTick.
	rescueTick  = time.Millisecond
	rescueAfter = 5 * time.Millisecond
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
	if err != nil {
		return fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return nil
}

// frameReader reads length-prefixed frames off one connection. Only the
// goroutine holding the connection's read role calls next. A read that a
// deadline cuts off leaves the partial frame here, and the next holder's call
// resumes it where it stopped, so the stream stays in step.
type frameReader struct {
	br   *bufio.Reader
	hdr  [4]byte
	nhdr int     // header bytes read so far
	buf  *[]byte // pooled payload buffer once the header is complete
	nbuf int     // payload bytes read so far
}

func newFrameReader(conn net.Conn) frameReader {
	return frameReader{br: bufio.NewReaderSize(conn, rpcReadBuffer)}
}

// next reads the rest of the current frame and decodes it into f. On success
// the returned buffer backs f.Body; the caller must codec.PutBuf it once the
// body is dead. An error leaves a partial frame in r; after any error but a
// deadline the connection is unusable.
func (r *frameReader) next(f *frame) (*[]byte, error) {
	if r.buf == nil {
		m, err := io.ReadFull(r.br, r.hdr[r.nhdr:])
		r.nhdr += m
		if err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(r.hdr[:])
		if n > maxRPCFrame {
			return nil, fmt.Errorf("rpc: frame length %d exceeds limit", n)
		}
		bp := codec.GetBuf()
		if cap(*bp) < int(n) {
			*bp = make([]byte, n)
		} else {
			*bp = (*bp)[:n]
		}
		r.buf, r.nbuf = bp, 0
	}
	bp := r.buf
	m, err := io.ReadFull(r.br, (*bp)[r.nbuf:])
	r.nbuf += m
	if err != nil {
		return nil, err
	}
	r.buf, r.nhdr = nil, 0
	start := time.Now()
	err = decodeFrame(*bp, f)
	codec.RecordDecode(codec.SurfaceRPC, len(*bp), time.Since(start))
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
	conns    map[net.Conn]*serverConn
	closed   bool
	watching bool      // watch is running; it stops once conns is empty
	born     time.Time // origin of the clock serverConn.inline is read on
	wg       sync.WaitGroup
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]handler),
		conns:    make(map[net.Conn]*serverConn),
		born:     time.Now(),
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
		c := &serverConn{srv: s, conn: conn, fr: newFrameReader(conn)}
		s.conns[conn] = c
		if !s.watching {
			s.watching = true
			s.wg.Add(1)
			go s.watch()
		}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.read()
	}
}

// now reads the server's monotonic clock in nanoseconds; it never returns 0.
func (s *Server) now() int64 { return int64(time.Since(s.born)) + 1 }

// watch rescues the read role from a handler that has run inline for
// rescueAfter while another request waits on its connection, so a slow or
// blocked handler does not stall the requests behind it. It runs while the
// server has connections. A rescue is decided on the handler's elapsed time,
// not on a count of ticks, because ticks can arrive back to back; and only
// when the connection is readable, because a process stalled for a few ms
// (a GC cycle, a busy host) would otherwise move a serial client's
// connection to a new goroutine with nothing waiting.
func (s *Server) watch() {
	defer s.wg.Done()
	tick := time.NewTicker(rescueTick)
	defer tick.Stop()
	for range tick.C {
		now := s.now()
		s.mu.Lock()
		if len(s.conns) == 0 {
			s.watching = false
			s.mu.Unlock()
			return
		}
		for _, c := range s.conns {
			st := c.inline.Load()
			if st != 0 && now-st >= int64(rescueAfter) && readable(c.conn) && c.inline.CompareAndSwap(st, 0) {
				go c.read()
			}
		}
		s.mu.Unlock()
	}
}

// serverConn is one connection's server state. One goroutine at a time
// holds its read role: it reads requests off the connection and runs a
// request that arrived alone inline, writing the reply before it reads
// again, so a client making one call at a time is served with no goroutine
// hand-off. A request with another one already buffered behind it runs on a
// goroutine of its own, and a handler still running inline after
// rescueAfter while another request waits loses the read role to a new
// goroutine (Server.watch); the old holder exits when its handler returns. Replies carry the request's id and
// may leave in any order.
type serverConn struct {
	srv  *Server
	conn net.Conn
	fr   frameReader // used by the read-role holder only
	wmu  sync.Mutex  // serialises response frames
	// inline is the start, on Server.now's clock, of the handler the
	// read-role holder is running inline, or 0 while it reads. Of the holder
	// and the watchdog, the one that swaps it to 0 decides who holds the
	// read role next.
	inline atomic.Int64
}

// request is one decoded request frame and the pooled buffer backing its body.
type request struct {
	frame frame
	buf   *[]byte
}

// read serves c for as long as this goroutine holds its read role. The read
// role carries one count of the server's WaitGroup: the holder that finds the
// connection gone releases it, and a holder the watchdog rescued passes it on.
func (c *serverConn) read() {
	for {
		var r request
		var err error
		if r.buf, err = c.fr.next(&r.frame); err != nil {
			c.srv.mu.Lock()
			delete(c.srv.conns, c.conn)
			c.srv.mu.Unlock()
			c.conn.Close()
			c.srv.wg.Done()
			return
		}
		if c.fr.br.Buffered() > 0 {
			go c.serve(r, 0)
			continue
		}
		start := c.srv.now()
		c.inline.Store(start)
		if !c.serve(r, start) {
			return // the watchdog gave the read role to another goroutine
		}
	}
}

// serve runs r's handler and writes the reply. A nonzero start means r runs
// inline on the read role, marked in c.inline since start; serve then
// reports whether this goroutine still holds the role. That is settled as
// soon as the handler returns, before the reply leaves, so the next request
// of a client that waited for this reply never finds the handler still
// marked as running.
func (c *serverConn) serve(r request, start int64) (kept bool) {
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
	kept = start != 0 && c.inline.CompareAndSwap(start, 0)
	c.wmu.Lock()
	_ = writeFrame(c.conn, &resp)
	c.wmu.Unlock()
	if body != nil {
		*bodyBuf = body[:0]
	}
	codec.PutBuf(bodyBuf)
	return kept
}

// Close stops the listener and closes all connections. It does not wait for
// handlers still running.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
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
// concurrent use. It runs no goroutine of its own: a caller waiting for its
// reply takes the read role when it is free and reads the connection
// itself, passing other callers' replies to them, until its own reply
// arrives; then it gives the role up to the next caller still waiting. A
// caller making one call at a time thus reads its own reply with no
// goroutine hand-off.
type Client struct {
	conn net.Conn
	wmu  sync.Mutex

	// role holds a token while a caller holds the read role; only that
	// caller touches fr.
	role chan struct{}
	fr   frameReader

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
	return newClient(conn), nil
}

// newClient returns a client speaking the RPC protocol over conn.
func newClient(conn net.Conn) *Client {
	return &Client{
		conn:    conn,
		role:    make(chan struct{}, 1),
		fr:      newFrameReader(conn),
		pending: make(map[uint64]chan callResult),
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
// discarded by whichever caller next reads the connection) and returns an
// error wrapping ErrTimeout and the context error.
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

	res := c.await(ctx, method, id, ch)
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

// await waits for the result of call id: another caller passes it on ch,
// or this caller takes the free read role and reads it off the connection.
func (c *Client) await(ctx context.Context, method string, id uint64, ch chan callResult) callResult {
	select {
	case res := <-ch:
		return res
	case <-ctx.Done():
		return c.abandon(method, id, ch, ctx.Err())
	case c.role <- struct{}{}:
	}
	defer func() { <-c.role }()
	select {
	case res := <-ch: // passed on by the previous holder before it let go
		return res
	default:
		return c.readReply(ctx, method, id, ch)
	}
}

// aLongTimeAgo is a read deadline in the past: setting it cuts a blocked
// read short.
var aLongTimeAgo = time.Unix(1, 0)

// readReply reads frames, as the read-role holder, until call id's reply
// arrives, passing the replies of other pending calls on to them. When ctx
// ends, a read deadline in the past cuts the read short, and a frame it cut
// off stays in c.fr for the next holder to finish.
func (c *Client) readReply(ctx context.Context, method string, id uint64, ch chan callResult) callResult {
	if ctx.Done() != nil {
		cut := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			_ = c.conn.SetReadDeadline(aLongTimeAgo)
			close(cut)
		})
		defer func() {
			// A cancellation that has landed finishes setting its deadline
			// before the deadline is cleared, so it cannot cut the next
			// holder's read.
			if !stop() {
				<-cut
				_ = c.conn.SetReadDeadline(time.Time{})
			}
		}()
	}
	for {
		var f frame
		bp, err := c.fr.next(&f)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// Only a cancellation sets a deadline, so this is the caller's
			// timeout, even if the deadline fired before ctx.Err was set.
			return c.abandon(method, id, ch, ctx.Err())
		}
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
			return <-ch // fail delivered this call's result too
		}
		c.mu.Lock()
		to := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		switch {
		case f.ID == id:
			return callResult{resp: f, buf: bp}
		case to != nil:
			to <- callResult{resp: f, buf: bp}
		default:
			codec.PutBuf(bp) // call was abandoned; nobody will decode this
		}
	}
}

// abandon gives call id up once ctx has ended (cause is ctx's error, nil
// when a deadline beat it). A result already on ch, a reply or a connection
// failure that raced the cancellation, still wins.
func (c *Client) abandon(method string, id uint64, ch chan callResult, cause error) callResult {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	select {
	case res := <-ch:
		return res
	default:
	}
	if cause == nil {
		cause = context.DeadlineExceeded
	}
	return callResult{err: fmt.Errorf("rpc: %s: %w: %w", method, ErrTimeout, cause)}
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
