package transport

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"dynamast/internal/codec"
	"dynamast/internal/obs"
)

// TestUnsampledFrameByteIdentical pins the acceptance criterion that tracing
// costs zero bytes on unsampled frames: an untraced frame must encode
// byte-for-byte identically to the pre-tracing wire layout
// [codec header][flags][uvarint id][string method][opt err][body].
func TestUnsampledFrameByteIdentical(t *testing.T) {
	cases := []struct {
		name  string
		f     frame
		flags byte
	}{
		{"request", frame{ID: 7, Method: "txn", Body: []byte("payload")}, 0},
		{"response", frame{ID: 7, Method: "txn", Resp: true, Body: []byte{1, 2, 3}}, rpcFlagResp},
		{"error response", frame{ID: 9, Method: "grant", Resp: true, Err: "boom"}, rpcFlagResp | rpcFlagErr},
		{"empty body", frame{ID: 1, Method: "hb"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := appendFrame(nil, &tc.f)

			// The historical layout, hand-built from the codec primitives.
			want := codec.AppendHeader(nil, codec.Version1)
			want = append(want, tc.flags)
			want = codec.AppendUvarint(want, tc.f.ID)
			want = codec.AppendString(want, tc.f.Method)
			if tc.f.Err != "" {
				want = codec.AppendString(want, tc.f.Err)
			}
			want = append(want, tc.f.Body...)

			if !bytes.Equal(got, want) {
				t.Fatalf("unsampled frame not byte-identical to pre-tracing layout:\n got %x\nwant %x", got, want)
			}
		})
	}
}

func TestTracedFrameRoundTrip(t *testing.T) {
	in := frame{ID: 42, Method: "txn", Body: []byte("body"),
		Trace: 0xdeadbeefcafe, Span: 0x1234}
	buf := appendFrame(nil, &in)

	// The flags bit is the only gate: it must be set, and the frame must be
	// longer than its untraced twin by exactly the two uvarint ids.
	untraced := in
	untraced.Trace, untraced.Span = 0, 0
	plain := appendFrame(nil, &untraced)
	wantExtra := len(codec.AppendTraceContext(nil, in.Trace, in.Span))
	if len(buf) != len(plain)+wantExtra {
		t.Fatalf("traced frame is %d bytes, untraced %d: want exactly %d extra", len(buf), len(plain), wantExtra)
	}

	var out frame
	if err := decodeFrame(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace != in.Trace || out.Span != in.Span {
		t.Fatalf("trace context did not survive: got (%x, %x), want (%x, %x)",
			out.Trace, out.Span, in.Trace, in.Span)
	}
	if out.ID != in.ID || out.Method != in.Method || !bytes.Equal(out.Body, in.Body) {
		t.Fatalf("frame fields corrupted: %+v", out)
	}

	// Decoding an untraced frame leaves the context zero.
	var zero frame
	if err := decodeFrame(plain, &zero); err != nil {
		t.Fatal(err)
	}
	if zero.Trace != 0 || zero.Span != 0 {
		t.Fatalf("untraced frame decoded a context: (%x, %x)", zero.Trace, zero.Span)
	}
}

// TestCallTracedDeliversContext drives a real TCP round trip and asserts the
// server-side handler receives exactly the caller's SpanContext — and a zero
// context on the untraced path.
func TestCallTracedDeliversContext(t *testing.T) {
	srv := NewServer()
	var mu sync.Mutex
	var got []obs.SpanContext
	HandleTraced(srv, "echo", func(tc obs.SpanContext, req *testMsg) (*testMsg, error) {
		mu.Lock()
		got = append(got, tc)
		mu.Unlock()
		return &testMsg{N: req.N + 1}, nil
	})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sc := obs.NewTraceContext()
	var resp testMsg
	if err := cl.CallTraced(context.Background(), sc, "echo", &testMsg{N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 2 {
		t.Fatalf("echo returned %d, want 2", resp.N)
	}
	if err := cl.Call("echo", &testMsg{N: 5}, &resp); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("handler saw %d calls, want 2", len(got))
	}
	if got[0] != sc {
		t.Fatalf("traced call delivered %+v, want %+v", got[0], sc)
	}
	if got[1].Sampled() {
		t.Fatalf("untraced call delivered a sampled context: %+v", got[1])
	}
}
