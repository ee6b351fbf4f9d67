package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
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
	// The extra workers are gone or parked; one of them keeps serving.
	serial("after the burst")
}
