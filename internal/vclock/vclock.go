// Package vclock implements the version-vector algebra that DynaMast uses to
// order transactions across sites.
//
// A replicated system with m sites tracks three kinds of m-dimensional
// vectors of counters:
//
//   - site version vectors (svv): svv[j] is the number of update
//     transactions originating at site j whose effects site i has applied
//     (locally committed transactions for j == i, refresh transactions
//     otherwise);
//   - transaction version vectors (tvv): a transaction's begin timestamp is
//     the executing site's svv at begin, and its commit timestamp is the
//     begin vector with the executing site's own dimension advanced to the
//     transaction's local commit sequence number;
//   - client version vectors (cvv): the freshest state a client session has
//     observed, used to enforce strong-session snapshot isolation.
//
// All three are represented by the Vector type.
package vclock

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Vector is an m-dimensional version vector. Index j counts committed update
// transactions that originated at site j. The zero-length Vector is a valid
// empty vector.
//
// Vector values are not safe for concurrent mutation; callers synchronize
// externally (see SiteClock for an internally synchronized site vector).
type Vector []uint64

// New returns a zeroed vector for a system of m sites.
func New(m int) Vector {
	return make(Vector, m)
}

// Clone returns a copy of v that shares no storage with v.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// DominatesEq reports whether v[k] >= o[k] for every dimension k.
// Vectors of different lengths are compared over the shorter length, with
// missing trailing dimensions of either side treated as zero.
func (v Vector) DominatesEq(o Vector) bool {
	for k := range o {
		var vk uint64
		if k < len(v) {
			vk = v[k]
		}
		if vk < o[k] {
			return false
		}
	}
	return true
}

// Equal reports whether v and o agree in every dimension, treating missing
// trailing dimensions as zero.
func (v Vector) Equal(o Vector) bool {
	n := len(v)
	if len(o) > n {
		n = len(o)
	}
	for k := 0; k < n; k++ {
		var vk, ok uint64
		if k < len(v) {
			vk = v[k]
		}
		if k < len(o) {
			ok = o[k]
		}
		if vk != ok {
			return false
		}
	}
	return true
}

// MaxInto sets v[k] = max(v[k], o[k]) for every dimension, growing v if o is
// longer, and returns the (possibly reallocated) result. The elementwise max
// of release/grant vectors gives the minimum version a remastered
// transaction must observe (Algorithm 1, line 9).
func (v Vector) MaxInto(o Vector) Vector {
	if len(o) > len(v) {
		g := make(Vector, len(o))
		copy(g, v)
		v = g
	}
	for k := range o {
		if o[k] > v[k] {
			v[k] = o[k]
		}
	}
	return v
}

// LagBehind returns the L1 distance max(0, o[k]-v[k]) summed over k: the
// number of refresh transactions v must still apply to dominate o. It is the
// quantity inside Equation 5's f_refresh_delay.
func (v Vector) LagBehind(o Vector) uint64 {
	var lag uint64
	for k := range o {
		var vk uint64
		if k < len(v) {
			vk = v[k]
		}
		if o[k] > vk {
			lag += o[k] - vk
		}
	}
	return lag
}

// CanApplyEpoch reports whether a site with state svv may apply a sealed
// epoch from origin whose first member carries local commit sequence
// firstSeq and whose closing commit vector (the element-wise max of the
// members' tvvs, with the origin dimension at the last member's sequence) is
// closing. A single transaction is the one-member epoch (closing = its tvv,
// firstSeq = tvv[origin]):
//
//	svv[k] >= closing[k] for all k != origin, and svv[origin] == firstSeq-1.
//
// Checking the closing vector once is sufficient for the whole epoch: a
// member's cross-origin dependencies always reference sealed epoch
// boundaries at the other sites (an unsealed commit is invisible to remote
// snapshots), so every member's dependency vector is dominated by closing.
func CanApplyEpoch(svv, closing Vector, origin int, firstSeq uint64) bool {
	if origin < 0 || origin >= len(closing) || firstSeq == 0 {
		return false
	}
	for k := range closing {
		var sk uint64
		if k < len(svv) {
			sk = svv[k]
		}
		if k == origin {
			if sk != firstSeq-1 {
				return false
			}
			continue
		}
		if sk < closing[k] {
			return false
		}
	}
	return true
}

// AppendBinary appends v's wire encoding — a uvarint dimension count
// followed by one uvarint per dimension — to buf and returns the extended
// slice. This is the vector's shape on every binary wire surface (WAL
// entries, RPC bodies, checkpoint manifolds); decoding lives with the
// codec's Reader, which reuses caller capacity.
func (v Vector) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = binary.AppendUvarint(buf, x)
	}
	return buf
}

// AppendDelta appends v's delta encoding against prev — a uvarint dimension
// count followed by one zig-zag varint per dimension holding v[k]-prev[k]
// (two's-complement wrap; missing trailing dimensions of prev read as zero).
// Vectors in a refresh stream differ from their predecessor in one or two
// dimensions by small amounts, so deltas collapse O(sites) multi-byte
// counters to single-byte zeros; decoding lives with the codec's Reader
// (Reader.VectorDelta), mirroring AppendBinary.
func (v Vector) AppendDelta(buf []byte, prev Vector) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for k, x := range v {
		var p uint64
		if k < len(prev) {
			p = prev[k]
		}
		d := int64(x - p)
		buf = binary.AppendUvarint(buf, uint64(d)<<1^uint64(d>>63))
	}
	return buf
}

// String renders v as "[a b c]".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for k, x := range v {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte(']')
	return b.String()
}
