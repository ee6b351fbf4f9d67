package codec

import (
	"fmt"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// Shared sub-schemas for the record fragments that appear on more than one
// wire surface (version vectors and write sets ride in WAL entries, RPC
// bodies, and checkpoint rows). Each is a count-prefixed sequence of its
// element schema; empty sequences decode as nil.

// AppendVector appends a version vector (delegates to the vector's own
// encoding so vclock owns its wire shape).
func AppendVector(buf []byte, v vclock.Vector) []byte {
	return v.AppendBinary(buf)
}

// Vector decodes a version vector, reusing dst's capacity when possible.
func (r *Reader) Vector(dst vclock.Vector) vclock.Vector {
	n := r.Count()
	if n == 0 {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make(vclock.Vector, n)
	}
	for i := range dst {
		dst[i] = r.Uvarint()
	}
	if r.err != nil {
		return nil
	}
	return dst
}

// VectorDelta decodes a delta-encoded vector against prev, reusing dst's
// capacity when possible. Diffs add to prev with two's-complement wrap, the
// exact inverse of vclock.Vector.AppendDelta for every uint64 value.
func (r *Reader) VectorDelta(prev, dst vclock.Vector) vclock.Vector {
	n := r.Count()
	if n == 0 {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make(vclock.Vector, n)
	}
	for i := range dst {
		var p uint64
		if i < len(prev) {
			p = prev[i]
		}
		dst[i] = p + uint64(r.Int())
	}
	if r.err != nil {
		return nil
	}
	return dst
}

// Vector delta-frame flags: the one-byte discriminator ahead of a
// maybe-delta vector. Full vectors are the fallback on first contact (no
// previous vector) or a dimensionality change; deltas carry diffs against
// the stream's previous vector.
const (
	vectorFull  = 0
	vectorDelta = 1
)

// AppendVectorMaybeDelta appends v either delta-encoded against prev (flag
// byte 1) or as a full vector (flag byte 0) when no usable previous vector
// exists — prev empty or of a different dimensionality. This is the frame
// shape of delta-vector streams (epoch replication frames): the flag makes
// each frame self-describing, so a receiver resynchronizes on any gap by
// the next full frame.
func AppendVectorMaybeDelta(buf []byte, prev, v vclock.Vector) []byte {
	if len(prev) != len(v) || len(v) == 0 {
		buf = append(buf, vectorFull)
		return v.AppendBinary(buf)
	}
	buf = append(buf, vectorDelta)
	return v.AppendDelta(buf, prev)
}

// VectorMaybeDelta decodes a frame appended by AppendVectorMaybeDelta,
// resolving deltas against prev.
func (r *Reader) VectorMaybeDelta(prev, dst vclock.Vector) vclock.Vector {
	if r.err != nil {
		return nil
	}
	if r.off >= len(r.data) {
		r.fail(ErrTruncated)
		return nil
	}
	flag := r.data[r.off]
	r.off++
	switch flag {
	case vectorFull:
		return r.Vector(dst)
	case vectorDelta:
		return r.VectorDelta(prev, dst)
	}
	r.fail(fmt.Errorf("%w: vector frame flag 0x%02x", ErrCorrupt, flag))
	return nil
}

// AppendRef appends one row reference.
func AppendRef(buf []byte, ref storage.RowRef) []byte {
	buf = AppendString(buf, ref.Table)
	return AppendUvarint(buf, ref.Key)
}

// Ref decodes one row reference.
func (r *Reader) Ref() storage.RowRef {
	return storage.RowRef{Table: r.String(), Key: r.Uvarint()}
}

// AppendRefs appends a row-reference list.
func AppendRefs(buf []byte, refs []storage.RowRef) []byte {
	buf = AppendUvarint(buf, uint64(len(refs)))
	for _, ref := range refs {
		buf = AppendRef(buf, ref)
	}
	return buf
}

// Refs decodes a row-reference list.
func (r *Reader) Refs() []storage.RowRef {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]storage.RowRef, n)
	for i := range out {
		out[i] = r.Ref()
		if r.err != nil {
			return nil
		}
	}
	return out
}

// AppendWrite appends one row mutation.
func AppendWrite(buf []byte, w storage.Write) []byte {
	buf = AppendRef(buf, w.Ref)
	buf = AppendBytes(buf, w.Data)
	return AppendBool(buf, w.Deleted)
}

// Write decodes one row mutation. Data is freshly allocated (it may escape
// into an MVCC version chain).
func (r *Reader) Write() storage.Write {
	return storage.Write{Ref: r.Ref(), Data: r.Bytes(), Deleted: r.Bool()}
}

// AppendWrites appends a write set.
func AppendWrites(buf []byte, ws []storage.Write) []byte {
	buf = AppendUvarint(buf, uint64(len(ws)))
	for i := range ws {
		buf = AppendWrite(buf, ws[i])
	}
	return buf
}

// Writes decodes a write set.
func (r *Reader) Writes() []storage.Write {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]storage.Write, n)
	for i := range out {
		out[i] = r.Write()
		if r.err != nil {
			return nil
		}
	}
	return out
}

// AppendKVs appends key/value rows (scan results, shipping payloads).
func AppendKVs(buf []byte, rows []storage.KV) []byte {
	buf = AppendUvarint(buf, uint64(len(rows)))
	for i := range rows {
		buf = AppendUvarint(buf, rows[i].Key)
		buf = AppendBytes(buf, rows[i].Value)
	}
	return buf
}

// KVs decodes key/value rows.
func (r *Reader) KVs() []storage.KV {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]storage.KV, n)
	for i := range out {
		out[i].Key = r.Uvarint()
		out[i].Value = r.Bytes()
		if r.err != nil {
			return nil
		}
	}
	return out
}

// AppendStamp appends an MVCC version stamp.
func AppendStamp(buf []byte, s storage.Stamp) []byte {
	buf = AppendInt(buf, int64(s.Origin))
	return AppendUvarint(buf, s.Seq)
}

// Stamp decodes an MVCC version stamp.
func (r *Reader) Stamp() storage.Stamp {
	return storage.Stamp{Origin: int(r.Int()), Seq: r.Uvarint()}
}

// AppendUint64s appends a count-prefixed uint64 list (partition ids,
// per-site counters).
func AppendUint64s(buf []byte, vs []uint64) []byte {
	buf = AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = AppendUvarint(buf, v)
	}
	return buf
}

// Uint64s decodes a count-prefixed uint64 list.
func (r *Reader) Uint64s() []uint64 {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uvarint()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// AppendTime appends a timestamp as UnixNano. The zero time travels as 0,
// which conflates it with the Unix epoch instant itself — no DynaMast
// timestamp is ever the epoch, and zero-ness (At unset) is what matters.
// Monotonic-clock readings and location are dropped.
func AppendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(buf, 0)
	}
	return AppendInt(buf, t.UnixNano())
}

// Time decodes a timestamp appended by AppendTime.
func (r *Reader) Time() time.Time {
	ns := r.Int()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}
