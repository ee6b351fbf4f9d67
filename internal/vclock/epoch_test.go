package vclock

import (
	"encoding/binary"
	"testing"
)

func TestCanApplyEpoch(t *testing.T) {
	// Replica at svv waits on an epoch of 3 members (seqs 4..6) from
	// origin 0 whose closing vector also depends on site 2's seq 2.
	closing := Vector{6, 0, 2}

	// Exactly the previous origin seq applied, dependency satisfied.
	if !CanApplyEpoch(Vector{3, 0, 2}, closing, 0, 4) {
		t.Error("applicable epoch rejected")
	}
	// Gap in the origin sequence: firstSeq 4 needs svv[origin] == 3.
	if CanApplyEpoch(Vector{2, 0, 2}, closing, 0, 4) {
		t.Error("epoch applied over an origin-sequence gap")
	}
	// Origin ahead (epoch already applied) must not re-apply.
	if CanApplyEpoch(Vector{6, 0, 2}, closing, 0, 4) {
		t.Error("epoch re-applied")
	}
	// Cross-origin dependency unsatisfied: closing[2] = 2 > svv[2].
	if CanApplyEpoch(Vector{3, 0, 1}, closing, 0, 4) {
		t.Error("epoch applied before its cross-origin dependency")
	}
	// The origin dimension of closing itself is not a dependency: a
	// replica never needs svv[origin] to reach closing[origin] first.
	if !CanApplyEpoch(Vector{3, 5, 2}, closing, 0, 4) {
		t.Error("closing origin dimension treated as a dependency")
	}
	// Shorter svv reads missing dimensions as zero.
	if CanApplyEpoch(Vector{3}, closing, 0, 4) {
		t.Error("missing dependency dimension accepted")
	}
	if !CanApplyEpoch(Vector{3, 0, 2}, Vector{6, 0, 0}, 0, 4) {
		t.Error("longer svv rejected an applicable epoch")
	}
	// Invalid parameters.
	if CanApplyEpoch(Vector{3, 0, 2}, closing, 5, 4) {
		t.Error("out-of-range origin accepted")
	}
	if CanApplyEpoch(Vector{0, 0, 0}, closing, 0, 0) {
		t.Error("zero firstSeq accepted (commit seqs start at 1)")
	}
}

// TestAppendDeltaEncoding checks the wire shape directly: near-identical
// vectors collapse to one byte per dimension, and regressions survive via
// the signed zig-zag wrap.
func TestAppendDeltaEncoding(t *testing.T) {
	prev := Vector{1 << 40, 1 << 40, 1 << 40}
	v := Vector{1<<40 + 1, 1 << 40, 1 << 40}
	buf := v.AppendDelta(nil, prev)
	// Count byte + three single-byte deltas (+1, 0, 0).
	if len(buf) != 4 {
		t.Fatalf("delta of near-identical vectors = %d bytes, want 4 (%x)", len(buf), buf)
	}

	decode := func(buf []byte, prev Vector) Vector {
		n, off := binary.Uvarint(buf)
		out := make(Vector, n)
		for k := range out {
			d, w := binary.Uvarint(buf[off:])
			off += w
			s := int64(d>>1) ^ -int64(d&1)
			var p uint64
			if k < len(prev) {
				p = prev[k]
			}
			out[k] = p + uint64(s)
		}
		if off != len(buf) {
			t.Fatalf("delta encoding left %d trailing bytes", len(buf)-off)
		}
		return out
	}
	if got := decode(buf, prev); !got.Equal(v) {
		t.Fatalf("decode = %v, want %v", got, v)
	}

	// Regression: v < prev in one dimension.
	down := Vector{1<<40 - 7, 1 << 40, 1 << 40}
	if got := decode(down.AppendDelta(nil, prev), prev); !got.Equal(down) {
		t.Fatalf("regressed delta decode = %v, want %v", got, down)
	}

	// Missing trailing prev dimensions read as zero.
	short := Vector{5}
	grown := Vector{6, 3}
	if got := decode(grown.AppendDelta(nil, short), short); !got.Equal(grown) {
		t.Fatalf("grown delta decode = %v, want %v", got, grown)
	}
}
