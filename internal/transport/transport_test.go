package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dynamast/internal/codec"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

func TestNilNetworkIsFree(t *testing.T) {
	var n *Network
	start := time.Now()
	n.Send(CatTxn, 1<<20)
	n.RoundTrip(Cat2PC, 100, 100)
	n.Account(CatReplication, 5)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("nil network slept")
	}
	for _, s := range n.Stats() {
		if s.Messages != 0 || s.Bytes != 0 {
			t.Fatalf("nil network accounted: %+v", s)
		}
	}
	if n.Config() != (Config{}) {
		t.Fatal("nil network config nonzero")
	}
}

func TestSendAccounting(t *testing.T) {
	n := NewNetwork(Instant())
	n.Send(CatRemaster, 100)
	n.Send(CatRemaster, 50)
	n.RoundTrip(Cat2PC, 10, 20)
	n.Account(CatReplication, 7)
	stats := n.Stats()
	byCat := map[Category]CategoryStats{}
	for _, s := range stats {
		byCat[s.Category] = s
	}
	if s := byCat[CatRemaster]; s.Messages != 2 || s.Bytes != 150 {
		t.Fatalf("remaster stats %+v", s)
	}
	if s := byCat[Cat2PC]; s.Messages != 2 || s.Bytes != 30 {
		t.Fatalf("2pc stats %+v", s)
	}
	if s := byCat[CatReplication]; s.Messages != 1 || s.Bytes != 7 {
		t.Fatalf("replication stats %+v", s)
	}
}

func TestSendLatency(t *testing.T) {
	n := NewNetwork(Config{OneWay: 20 * time.Millisecond})
	start := time.Now()
	n.Send(CatTxn, 10)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("Send returned after %v, want >= 20ms", d)
	}
}

func TestTransferTimeBandwidth(t *testing.T) {
	n := NewNetwork(Config{BytesPerSecond: 1e6}) // 1 MB/s
	start := time.Now()
	n.Send(CatShipping, 20_000) // 20ms at 1MB/s
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("transfer time not charged: %v", d)
	}
	if n.transferTime(0) != 0 {
		t.Fatal("zero-size transfer has nonzero time")
	}
}

func TestCategoryString(t *testing.T) {
	want := map[Category]string{
		CatRoute: "route", CatTxn: "txn", CatRemaster: "remaster",
		CatReplication: "replication", Cat2PC: "2pc", CatShipping: "shipping",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if Category(99).String() != "category(99)" {
		t.Error("unknown category string")
	}
	if len(Categories()) != int(numCategories) {
		t.Error("Categories() wrong length")
	}
}

func TestSizeEstimators(t *testing.T) {
	if SizeOfVector(vclock.New(4)) != 2+32 {
		t.Error("SizeOfVector")
	}
	refs := []storage.RowRef{{Table: "t", Key: 1}, {Table: "t", Key: 2}}
	if SizeOfRefs(refs) != 2+20 {
		t.Error("SizeOfRefs")
	}
	writes := []storage.Write{{Ref: refs[0], Data: make([]byte, 100)}}
	if SizeOfWrites(writes) != 2+10+3+100 {
		t.Error("SizeOfWrites")
	}
	rows := []storage.KV{{Key: 1, Value: make([]byte, 10)}}
	if SizeOfRows(rows) != 2+8+3+10 {
		t.Error("SizeOfRows")
	}
	if SizeOfPartitions([]uint64{1, 2, 3}) != 2+24 {
		t.Error("SizeOfPartitions")
	}
}

// testMsg is every RPC test's request and response body: a string, a
// number and a byte payload under one binary schema.
type testMsg struct {
	Msg  string
	N    int64
	Data []byte
}

func (m *testMsg) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = codec.AppendString(buf, m.Msg)
	buf = codec.AppendInt(buf, m.N)
	return codec.AppendBytes(buf, m.Data)
}

func (m *testMsg) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	m.Msg = r.String()
	m.N = r.Int()
	m.Data = r.Bytes()
	return r.Done()
}

func startEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	Handle(s, "echo", func(r *testMsg) (*testMsg, error) {
		return &testMsg{Msg: r.Msg}, nil
	})
	Handle(s, "fail", func(r *testMsg) (*testMsg, error) {
		return nil, errors.New("boom: " + r.Msg)
	})
	Handle(s, "slow", func(r *testMsg) (*testMsg, error) {
		time.Sleep(30 * time.Millisecond)
		return &testMsg{Msg: "slow:" + r.Msg}, nil
	})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

func TestRPCEcho(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp testMsg
	if err := c.Call("echo", &testMsg{Msg: "hello"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "hello" {
		t.Fatalf("echo = %q", resp.Msg)
	}
}

func TestRPCErrorPropagation(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp testMsg
	err = c.Call("fail", &testMsg{Msg: "x"}, &resp)
	if err == nil || err.Error() != "boom: x" {
		t.Fatalf("err = %v", err)
	}
	err = c.Call("nosuch", &testMsg{}, &resp)
	if err == nil {
		t.Fatal("unknown method succeeded")
	}
}

func TestRPCConcurrentMultiplexing(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	start := time.Now()
	for i := 0; i < 10; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			var resp testMsg
			if err := c.Call("slow", &testMsg{Msg: "a"}, &resp); err != nil {
				errs <- err
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			var resp testMsg
			if err := c.Call("echo", &testMsg{Msg: "b"}, &resp); err != nil {
				errs <- err
			} else if resp.Msg != "b" {
				errs <- errors.New("wrong reply")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 10 slow calls at 30ms each must overlap, not serialize (300ms).
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("calls serialized: %v", d)
	}
}

func TestRPCNilReply(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("echo", &testMsg{Msg: "x"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRPCClientCloseFailsInflight(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var resp testMsg
		done <- c.Call("slow", &testMsg{Msg: "x"}, &resp)
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung after Close")
	}
	if err := c.Call("echo", &testMsg{}, nil); err == nil {
		t.Fatal("Call after Close succeeded")
	}
}

func TestRPCServerClose(t *testing.T) {
	s := NewServer()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("echo", &testMsg{}, nil); err == nil {
		t.Fatal("call succeeded against closed server")
	}
}
