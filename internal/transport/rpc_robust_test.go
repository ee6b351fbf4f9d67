package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Robustness tests for the RPC layer: malformed frames, abrupt
// disconnects, and large payloads.

func TestRPCServerSurvivesGarbageBytes(t *testing.T) {
	s := NewServer()
	Handle(s, "echo", func(r *testMsg) (*testMsg, error) { return &testMsg{Msg: r.Msg}, nil })
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A raw connection spews garbage; the server must drop it without
	// disturbing well-behaved clients.
	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("this is not a codec frame \x00\xff\x13\x37"))
	raw.Close()

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp testMsg
	if err := c.Call("echo", &testMsg{Msg: "still alive"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "still alive" {
		t.Fatalf("resp = %q", resp.Msg)
	}
}

func TestRPCServerSurvivesMidFrameDisconnect(t *testing.T) {
	s := NewServer()
	Handle(s, "echo", func(r *testMsg) (*testMsg, error) { return &testMsg{Msg: r.Msg}, nil })
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Send the first half of a valid request frame then cut the connection.
	var whole bytes.Buffer
	body := (&testMsg{Msg: "partial"}).MarshalTo(nil)
	if err := writeFrame(&whole, &frame{ID: 1, Method: "echo", Body: body}); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write(whole.Bytes()[:whole.Len()/2])
	raw.Close()

	// Server keeps serving.
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("echo", &testMsg{Msg: "ok"}, &testMsg{}); err != nil {
		t.Fatal(err)
	}
}

func TestRPCLargePayloadRoundTrip(t *testing.T) {
	s := NewServer()
	Handle(s, "blob", func(r *testMsg) (*testMsg, error) { return &testMsg{N: int64(len(r.Data))}, nil })
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := make([]byte, 4<<20) // 4 MiB
	for i := range payload {
		payload[i] = byte(i)
	}
	var resp testMsg
	if err := c.Call("blob", &testMsg{Data: payload}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != int64(len(payload)) {
		t.Fatalf("server saw %d bytes", resp.N)
	}
}

func TestRPCManySequentialCalls(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 500; i++ {
		var resp testMsg
		if err := c.Call("echo", &testMsg{Msg: "m"}, &resp); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestRPCHandlerPanicIsolation(t *testing.T) {
	// A handler returning an error string containing newlines and weird
	// characters must round-trip as an error.
	s := NewServer()
	Handle(s, "weird", func(r *testMsg) (*testMsg, error) {
		return nil, &weirdError{}
	})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("weird", &testMsg{}, &testMsg{})
	if err == nil || !strings.Contains(err.Error(), "line2") {
		t.Fatalf("err = %v", err)
	}
}

type weirdError struct{}

func (*weirdError) Error() string { return "line1\nline2\ttab\x00nul" }

func TestRPCConcurrentClients(t *testing.T) {
	_, addr := startEchoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				var resp testMsg
				if err := c.Call("echo", &testMsg{Msg: "x"}, &resp); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-errs:
		t.Fatal(err)
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent clients hung")
	}
}

func TestServerErrorTextNotMistakenForConnLoss(t *testing.T) {
	// An application error whose text resembles the client's connection
	// failure messages must stay a definitive server answer: it wraps
	// neither ErrConnLost nor ErrTimeout, the classes a caller may retry.
	s := NewServer()
	const text = "upstream connection lost; client closed"
	Handle(s, "flaky", func(r *testMsg) (*testMsg, error) {
		return nil, errors.New(text)
	})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = c.CallCtx(ctx, "flaky", &testMsg{}, &testMsg{})
	if err == nil || err.Error() != text {
		t.Fatalf("err = %v, want the application error %q", err, text)
	}
	if errors.Is(err, ErrConnLost) || errors.Is(err, ErrTimeout) {
		t.Fatalf("server error classified as a transport failure: %v", err)
	}
}

// goroutineID parses the calling goroutine's id out of its stack header; the
// worker tests use it to tell which server goroutine ran a handler.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestRPCConnectionWorkers pins the per-connection worker hand-off: a client
// issuing one call at a time is served by a single long-lived goroutine;
// calls that need each other to finish still run concurrently on one
// connection, and every reply reaches the call that asked for it.
func TestRPCConnectionWorkers(t *testing.T) {
	const burst = 8
	s := NewServer()
	Handle(s, "gid", func(*testMsg) (*testMsg, error) {
		return &testMsg{Msg: goroutineID()}, nil
	})
	var arrived sync.WaitGroup
	arrived.Add(burst)
	Handle(s, "rendezvous", func(r *testMsg) (*testMsg, error) {
		// Returns only once all burst calls are inside their handlers.
		arrived.Done()
		arrived.Wait()
		return &testMsg{Msg: r.Msg}, nil
	})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	serial := func(when string) {
		t.Helper()
		var first string
		for i := 0; i < 50; i++ {
			var resp testMsg
			if err := c.Call("gid", &testMsg{}, &resp); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = resp.Msg
			} else if resp.Msg != first {
				t.Fatalf("%s: serial call %d ran on goroutine %s, the first on %s", when, i, resp.Msg, first)
			}
		}
	}
	serial("fresh connection")

	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := strings.Repeat("x", i+1)
			var resp testMsg
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := c.CallCtx(ctx, "rendezvous", &testMsg{Msg: msg}, &resp); err != nil {
				t.Errorf("burst call %d: %v (calls on one connection did not overlap)", i, err)
			} else if resp.Msg != msg {
				t.Errorf("burst call %d got reply %q", i, resp.Msg)
			}
		}(i)
	}
	wg.Wait()
	// The burst's handlers ran on goroutines of their own, and the
	// rendezvous held its inline handler long enough for the watchdog to
	// hand the read role on. Whichever goroutine holds the role now serves
	// every lone request inline again, so serial calls share one goroutine.
	serial("after the burst")
}

// newGoroutineID starts a goroutine and returns its id. Each P takes ids
// from a global counter in batches of 16, so while GOMAXPROCS is 1 the gap
// between two ids counts the goroutines started in between, plus 16 for
// each batch some other P took.
func newGoroutineID(t *testing.T) uint64 {
	t.Helper()
	ch := make(chan string)
	go func() { ch <- goroutineID() }()
	id, err := strconv.ParseUint(<-ch, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestRPCSerialCallsStartNoGoroutine: a caller making one call at a time
// reads its own reply and the server's reader serves the request inline,
// so a thousand calls start no goroutine on either side.
func TestRPCSerialCallsStartNoGoroutine(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := func() {
		t.Helper()
		var resp testMsg
		if err := c.Call("echo", &testMsg{Msg: "m"}, &resp); err != nil || resp.Msg != "m" {
			t.Fatalf("echo = %q, %v", resp.Msg, err)
		}
	}
	call() // the server's reader and watchdog start with the connection
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := newGoroutineID(t)
	for i := 0; i < 1000; i++ {
		call()
	}
	// A goroutine per call would add 1000; the batches of other Ps, the
	// probe itself and the runtime's own start-up stay far below 100.
	if gap := newGoroutineID(t) - before; gap > 100 {
		t.Fatalf("1000 serial calls started about %d goroutines", gap)
	}
}

// TestRPCDeadlineMidFrameKeepsStream: a caller whose deadline expires while
// it holds the read role halfway through a multi-MB reply leaves the partial
// frame for the next reader, which finishes it, drops it (its call was
// abandoned) and reads its own reply.
func TestRPCDeadlineMidFrameKeepsStream(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	c := newClient(cliConn)
	defer c.Close()
	var big bytes.Buffer
	body := (&testMsg{Data: bytes.Repeat([]byte{0xAB}, 4<<20)}).MarshalTo(nil)
	if err := writeFrame(&big, &frame{ID: 1, Method: "big", Resp: true, Body: body}); err != nil {
		t.Fatal(err)
	}
	half := big.Len() / 2
	sent := make(chan struct{})
	go func() { // the server
		fr := newFrameReader(srvConn)
		var req frame
		if _, err := fr.next(&req); err != nil {
			t.Error(err)
			return
		}
		// net.Pipe is unbuffered: Write returns once the client has read it.
		if _, err := srvConn.Write(big.Bytes()[:half]); err != nil {
			t.Error(err)
			return
		}
		close(sent)
		if _, err := fr.next(&req); err != nil {
			t.Error(err)
			return
		}
		if _, err := srvConn.Write(big.Bytes()[half:]); err != nil {
			t.Error(err)
			return
		}
		reply := (&testMsg{Msg: "second"}).MarshalTo(nil)
		if err := writeFrame(srvConn, &frame{ID: req.ID, Method: req.Method, Resp: true, Body: reply}); err != nil {
			t.Error(err)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	err := c.CallCtx(ctx, "big", &testMsg{}, &testMsg{})
	cancel()
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrTimeout wrapping the deadline, got %v", err)
	}
	select {
	case <-sent:
	default:
		t.Fatal("the deadline expired before the first half of the reply was read")
	}
	if c.fr.buf == nil || c.fr.nbuf < half-4 {
		t.Fatalf("deadline did not cut the reply mid-frame (read %d of %d payload bytes)", c.fr.nbuf, big.Len()-4)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var resp testMsg
	if err := c.CallCtx(ctx, "small", &testMsg{}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "second" {
		t.Fatalf("second call got %q", resp.Msg)
	}
}

// TestRPCOutOfOrderReplies: replies that come back in the reverse order of
// the calls each reach the caller that made the call, whichever caller
// holds the read role when they arrive.
func TestRPCOutOfOrderReplies(t *testing.T) {
	const callers = 6
	cliConn, srvConn := net.Pipe()
	c := newClient(cliConn)
	defer c.Close()
	go func() { // the server: read every request, then answer last first
		fr := newFrameReader(srvConn)
		reqs := make([]frame, callers)
		for i := range reqs {
			if _, err := fr.next(&reqs[i]); err != nil {
				t.Error(err)
				return
			}
		}
		for i := callers - 1; i >= 0; i-- {
			var m testMsg
			if err := m.Unmarshal(reqs[i].Body); err != nil {
				t.Error(err)
				return
			}
			reply := (&testMsg{Msg: "re:" + m.Msg}).MarshalTo(nil)
			if err := writeFrame(srvConn, &frame{ID: reqs[i].ID, Method: reqs[i].Method, Resp: true, Body: reply}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := strconv.Itoa(i)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var resp testMsg
			if err := c.CallCtx(ctx, "echo", &testMsg{Msg: msg}, &resp); err != nil {
				t.Errorf("call %d: %v", i, err)
			} else if resp.Msg != "re:"+msg {
				t.Errorf("call %d got reply %q", i, resp.Msg)
			}
		}(i)
	}
	wg.Wait()
}

// TestRPCServerRescuesBlockedConnection: a handler that never returns holds
// the connection's read role only until the watchdog moves it, so a later
// call on the same connection is answered within a few rescue periods and
// Close still returns; two requests that arrive in one segment run
// concurrently.
func TestRPCServerRescuesBlockedConnection(t *testing.T) {
	s := NewServer()
	entered := make(chan struct{})
	never := make(chan struct{})
	defer close(never)
	Handle(s, "hang", func(*testMsg) (*testMsg, error) {
		close(entered)
		<-never
		return &testMsg{}, nil
	})
	Handle(s, "echo", func(r *testMsg) (*testMsg, error) { return &testMsg{Msg: r.Msg}, nil })
	var pair sync.WaitGroup
	pair.Add(2)
	Handle(s, "pair", func(r *testMsg) (*testMsg, error) {
		// Returns only once both requests of the pair are in their handlers.
		pair.Done()
		pair.Wait()
		return &testMsg{Msg: r.Msg}, nil
	})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hung := make(chan error, 1)
	go func() { hung <- c.Call("hang", &testMsg{}, &testMsg{}) }()
	<-entered

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var resp testMsg
	if err := c.CallCtx(ctx, "echo", &testMsg{Msg: "behind"}, &resp); err != nil || resp.Msg != "behind" {
		t.Fatalf("call behind a blocked handler: %q, %v", resp.Msg, err)
	}
	if d := time.Since(start); d > 20*rescueAfter {
		t.Fatalf("call behind a blocked handler took %v", d)
	}

	// Two requests in one Write: the first has the second buffered behind it.
	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var both bytes.Buffer
	for id := uint64(1); id <= 2; id++ {
		body := (&testMsg{Msg: strconv.FormatUint(id, 10)}).MarshalTo(nil)
		if err := writeFrame(&both, &frame{ID: id, Method: "pair", Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := newFrameReader(raw)
	seen := map[uint64]bool{}
	for len(seen) < 2 {
		var f frame
		if _, err := fr.next(&f); err != nil {
			t.Fatalf("pair replies: %v (requests in one segment did not overlap)", err)
		}
		seen[f.ID] = true
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind a handler that never returns")
	}
	if err := <-hung; !errors.Is(err, ErrConnLost) {
		t.Fatalf("blocked call after Close: %v", err)
	}
}

// TestRPCSlowHandlerKeepsReadRole: a handler that outlives rescueAfter with
// no request waiting behind it keeps its connection's read role, so a
// client making one call at a time stays on one server goroutine however
// long its calls take (or however long the process stalls).
func TestRPCSlowHandlerKeepsReadRole(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the watchdog can tell a waiting request only on linux")
	}
	s := NewServer()
	Handle(s, "gid", func(r *testMsg) (*testMsg, error) {
		time.Sleep(time.Duration(r.N))
		return &testMsg{Msg: goroutineID()}, nil
	})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var slow, fast testMsg
	if err := c.Call("gid", &testMsg{N: int64(4 * rescueAfter)}, &slow); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("gid", &testMsg{}, &fast); err != nil {
		t.Fatal(err)
	}
	if slow.Msg != fast.Msg {
		t.Fatalf("the call after a slow one ran on goroutine %s, the slow one on %s", fast.Msg, slow.Msg)
	}
}
