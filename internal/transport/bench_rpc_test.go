package transport

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"dynamast/internal/codec"
)

// benchBodyBin mimics a transaction submission: a session id, a
// write-set-like ref list, and a value payload.
type benchBodyBin struct {
	Client int64
	Tables []string
	Keys   []uint64
	Value  []byte
}

func (m *benchBodyBin) MarshalTo(buf []byte) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = codec.AppendInt(buf, m.Client)
	buf = codec.AppendUvarint(buf, uint64(len(m.Tables)))
	for _, t := range m.Tables {
		buf = codec.AppendString(buf, t)
	}
	buf = codec.AppendUint64s(buf, m.Keys)
	return codec.AppendBytes(buf, m.Value)
}

func (m *benchBodyBin) Unmarshal(data []byte) error {
	r := codec.NewReader(data)
	m.Client = r.Int()
	m.Tables = nil
	if n := r.Uvarint(); n > 0 && r.Err() == nil {
		m.Tables = make([]string, n)
		for i := range m.Tables {
			m.Tables[i] = r.String()
			if r.Err() != nil {
				m.Tables = nil
				break
			}
		}
	}
	m.Keys = r.Uint64s()
	m.Value = r.Bytes()
	return r.Done()
}

func benchBodyFields() (int64, []string, []uint64, []byte) {
	return 42,
		[]string{"accounts", "orders"},
		[]uint64{100, 205, 317},
		bytes.Repeat([]byte{0xAB}, 128)
}

// BenchmarkRPCBodyEncodeDecode isolates body serialization round-trip
// (encode + decode, no network).
func BenchmarkRPCBodyEncodeDecode(b *testing.B) {
	cl, tbl, keys, val := benchBodyFields()
	src := &benchBodyBin{Client: cl, Tables: tbl, Keys: keys, Value: val}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = src.MarshalTo(buf[:0])
		var dst benchBodyBin
		if err := dst.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCRoundTrip measures a full echo call over TCP loopback — frame
// encode, kernel round trip, frame decode, body decode. Network time
// dominates; the interesting column is allocs/op.
func BenchmarkRPCRoundTrip(b *testing.B) {
	cl, tbl, keys, val := benchBodyFields()
	s := NewServer()
	Handle(s, "echo", func(req *benchBodyBin) (*benchBodyBin, error) { return req, nil })
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	arg := &benchBodyBin{Client: cl, Tables: tbl, Keys: keys, Value: val}
	reply := &benchBodyBin{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call("echo", arg, reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCRoundTripParallel is BenchmarkRPCRoundTrip with 8 callers
// sharing one client, so replies pass between callers and the connection's
// read role changes hands on the client and the server.
func BenchmarkRPCRoundTripParallel(b *testing.B) {
	const callers = 8
	cl, tbl, keys, val := benchBodyFields()
	s := NewServer()
	Handle(s, "echo", func(req *benchBodyBin) (*benchBodyBin, error) { return req, nil })
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	arg := &benchBodyBin{Client: cl, Tables: tbl, Keys: keys, Value: val}
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply := &benchBodyBin{}
			for next.Add(1) <= int64(b.N) {
				if err := c.Call("echo", arg, reply); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestBenchBodyRoundTrip(t *testing.T) {
	cl, tbl, keys, val := benchBodyFields()
	src := &benchBodyBin{Client: cl, Tables: tbl, Keys: keys, Value: val}
	var dst benchBodyBin
	if err := dst.Unmarshal(src.MarshalTo(nil)); err != nil {
		t.Fatal(err)
	}
	if dst.Client != src.Client || len(dst.Tables) != 2 || len(dst.Keys) != 3 || !bytes.Equal(dst.Value, src.Value) {
		t.Fatalf("round trip mismatch: %+v", dst)
	}
}
