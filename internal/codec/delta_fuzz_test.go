package codec

import (
	"testing"

	"dynamast/internal/vclock"
)

// FuzzVClockDeltaRoundTrip checks the zig-zag delta encoding is a perfect
// inverse pair for every (prev, v) vector combination the fuzzer reaches —
// including dimension mismatches, zero vectors, and counter regressions
// (deltas are signed, so v < prev must survive too) — for both the raw
// delta frame and the flagged maybe-delta frame.
func FuzzVClockDeltaRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add(uint64(5), uint64(3), uint8(4), uint8(4))
	f.Add(uint64(1<<50), uint64(7), uint8(8), uint8(3))
	f.Add(^uint64(0), uint64(1), uint8(2), uint8(6))
	f.Fuzz(func(t *testing.T, base, step uint64, prevDims, dims uint8) {
		prev := make(vclock.Vector, int(prevDims)%9)
		for k := range prev {
			prev[k] = base + uint64(k)*step
		}
		v := make(vclock.Vector, int(dims)%9)
		for k := range v {
			// Mix growth and regression so signed deltas are exercised.
			v[k] = base + step - uint64(k)*3
		}

		buf := v.AppendDelta(AppendHeader(nil, Version1), prev)
		r := NewReader(buf)
		got := r.VectorDelta(prev, nil)
		if err := r.Done(); err != nil {
			t.Fatalf("delta decode: %v", err)
		}
		if !vclock.Vector(got).Equal(v) {
			t.Fatalf("delta round trip: got %v, want %v (prev %v)", got, v, prev)
		}

		mbuf := AppendVectorMaybeDelta(AppendHeader(nil, Version1), prev, v)
		mr := NewReader(mbuf)
		mgot := mr.VectorMaybeDelta(prev, nil)
		if err := mr.Done(); err != nil {
			t.Fatalf("maybe-delta decode: %v", err)
		}
		if !vclock.Vector(mgot).Equal(v) {
			t.Fatalf("maybe-delta round trip: got %v, want %v (prev %v)", mgot, v, prev)
		}
	})
}
