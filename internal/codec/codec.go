// Package codec is DynaMast's hand-rolled binary wire format, the one
// encoding on every surface where a record crosses a boundary — WAL
// entries, RPC frames and their bodies, and checkpoint snapshot rows.
//
// The paper's substrates are Apache Thrift's compact binary protocol (RPC)
// and Kafka's framed binary log (replication). This package provides what
// those substrates provide: explicit per-type wire schemas built from a
// small set of primitives, with append-style encoding into caller-owned
// buffers and a sticky-error Reader for decoding.
//
// # Wire discipline
//
// Every payload produced by this package begins with a two-byte header:
// Magic (0x00) then a format-version byte. It is the only encoding on every
// surface: a payload whose header is missing, carries another first byte or
// names an unknown version is refused (CheckHeader), never guessed at, so a
// durable file written in any other format fails to open instead of
// replaying as something else.
//
// Integers travel as unsigned LEB128 varints (signed values zig-zag), like
// Thrift's compact protocol; byte strings are length-prefixed.
//
// # Buffer ownership
//
// Encoding appends to a caller-supplied buffer (use GetBuf/PutBuf for
// pooled scratch). Decoding is the inverse ownership rule: any []byte or
// string a schema decodes is freshly allocated and owned by the caller —
// never an alias of the wire buffer — so pooled read buffers can be reused
// the moment decoding returns, and decoded payloads may safely escape into
// long-lived structures (MVCC version chains, retained log entries).
// Reader.Peek-style aliasing accessors are deliberately not provided.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

const (
	// Magic is the first byte of every payload; CheckHeader refuses any
	// other.
	Magic = 0x00
	// Version1 is the first (current) binary format version.
	Version1 = 0x01
	// HeaderSize is the length of the magic+version prefix.
	HeaderSize = 2
)

// ErrTruncated reports a payload that ended mid-field.
var ErrTruncated = errors.New("codec: truncated payload")

// ErrCorrupt reports a structurally invalid payload (bad length, overflow,
// trailing garbage).
var ErrCorrupt = errors.New("codec: corrupt payload")

// maxLen bounds any single length-prefixed field so a corrupt prefix cannot
// ask for an absurd allocation; it matches the WAL's 64 MiB frame bound.
const maxLen = 64 << 20

// Message is implemented by types that carry their own binary wire schema.
// MarshalTo appends the full payload — header included — to buf and returns
// the extended slice; Unmarshal parses a payload MarshalTo produced.
// Implementations must obey the package's buffer-ownership rule: Unmarshal
// copies every byte field out of data.
type Message interface {
	MarshalTo(buf []byte) []byte
	Unmarshal(data []byte) error
}

// AppendHeader appends the magic+version prefix for format version v.
func AppendHeader(buf []byte, v byte) []byte {
	return append(buf, Magic, v)
}

// CheckHeader validates the magic+version prefix and returns the body after
// it. Unknown versions are an error (a newer build's frames are not
// guessed at).
func CheckHeader(payload []byte) ([]byte, error) {
	if len(payload) < HeaderSize {
		return nil, ErrTruncated
	}
	if payload[0] != Magic {
		return nil, fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, payload[0])
	}
	if payload[1] != Version1 {
		return nil, fmt.Errorf("codec: unsupported format version %d", payload[1])
	}
	return payload[HeaderSize:], nil
}

// AppendUvarint appends v as an unsigned LEB128 varint.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendInt appends v zig-zag encoded (small magnitudes of either sign stay
// short).
func AppendInt(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, uint64(v)<<1^uint64(v>>63))
}

// AppendFloat appends a float64 as a varint of its IEEE-754 bits. Small
// integral values are not shorter this way (the mantissa occupies the high
// bits), but probabilities and ratios — the only floats on DynaMast's wire
// — are rare enough that uniformity beats a second fixed-width encoding.
func AppendFloat(buf []byte, f float64) []byte {
	return binary.AppendUvarint(buf, math.Float64bits(f))
}

// AppendBool appends v as one byte.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(buf, p []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	return append(buf, p...)
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Reader decodes a payload field by field with a sticky error: after the
// first violation every accessor returns a zero value, and Err (or Done)
// reports what went wrong. This keeps call sites linear — no error check
// per field — without ever panicking on garbage input.
type Reader struct {
	data []byte
	off  int
	err  error

	// intern, when non-nil, deduplicates decoded strings: repeated table
	// names across thousands of WAL entries or snapshot rows decode to one
	// shared string instead of one allocation each.
	intern map[string]string
}

// NewReader returns a Reader over a full payload including the
// magic+version header, validating it first.
func NewReader(payload []byte) *Reader {
	r := &Reader{}
	body, err := CheckHeader(payload)
	if err != nil {
		r.err = err
		return r
	}
	r.data = body
	return r
}

// SetIntern enables string interning with the given (possibly empty) map.
// The map is retained and grown; pass the same map across many payloads to
// share the dictionary.
func (r *Reader) SetIntern(m map[string]string) { r.intern = m }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Fail records err as the Reader's sticky error (first failure wins); it
// lets cooperating schema packages (the WAL's entry codec) report structural
// violations — a dictionary index out of range, an absurd count — through
// the same sticky-error channel the primitive accessors use.
func (r *Reader) Fail(err error) { r.fail(err) }

// Done returns the sticky error, or ErrCorrupt if undecoded bytes trail the
// payload (a well-formed payload is consumed exactly).
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.data)-r.off)
	}
	return nil
}

// Uvarint decodes one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(fmt.Errorf("%w: varint overflow", ErrCorrupt))
		}
		return 0
	}
	r.off += n
	return v
}

// Count decodes a sequence's element count. Every element takes at least
// one byte, so a count larger than the undecoded bytes is corrupt: it fails
// the reader and returns 0 instead of sizing an allocation.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail(fmt.Errorf("%w: count %d exceeds the payload", ErrCorrupt, n))
		return 0
	}
	return int(n)
}

// Int decodes one zig-zag varint.
func (r *Reader) Int() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float decodes a float64 appended by AppendFloat.
func (r *Reader) Float() float64 {
	return math.Float64frombits(r.Uvarint())
}

// Bool decodes one byte as a boolean (values other than 0/1 are corrupt).
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.data) {
		r.fail(ErrTruncated)
		return false
	}
	b := r.data[r.off]
	r.off++
	if b > 1 {
		r.fail(fmt.Errorf("%w: bool byte 0x%02x", ErrCorrupt, b))
		return false
	}
	return b == 1
}

// take validates and consumes a length-prefixed field, returning the raw
// wire bytes (an alias into the payload — internal use only; public
// accessors copy).
func (r *Reader) take() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxLen {
		r.fail(fmt.Errorf("%w: field length %d", ErrCorrupt, n))
		return nil
	}
	if uint64(len(r.data)-r.off) < n {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

// Bytes decodes a length-prefixed byte string into a fresh allocation
// (empty decodes as nil).
func (r *Reader) Bytes() []byte {
	p := r.take()
	if len(p) == 0 {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// Tail consumes and returns every remaining byte of the payload. It is the
// one deliberate exception to the no-aliasing rule — the returned slice
// points into the wire buffer — and exists for enclosing-frame schemas
// whose final field is an opaque nested body (the RPC frame): the caller
// owns the wire buffer and keeps it alive until the nested body has been
// decoded (at which point the ownership rule applies to ITS fields).
func (r *Reader) Tail() []byte {
	if r.err != nil {
		return nil
	}
	p := r.data[r.off:]
	r.off = len(r.data)
	if len(p) == 0 {
		return nil
	}
	return p
}

// String decodes a length-prefixed string, consulting the intern
// dictionary when enabled.
func (r *Reader) String() string {
	p := r.take()
	if len(p) == 0 {
		return ""
	}
	if r.intern != nil {
		if s, ok := r.intern[string(p)]; ok { // no-alloc map probe
			return s
		}
		s := string(p)
		r.intern[s] = s
		return s
	}
	return string(p)
}

// bufPool recycles encode/decode scratch across the WAL, RPC, and
// checkpoint paths. Buffers are held behind pointers so Put does not
// allocate a fresh interface header per call.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns a pooled, zero-length scratch buffer. Return it with
// PutBuf once every decoded view of it is dead.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a scratch buffer to the pool. Oversized buffers (from a
// rare huge message) are dropped so the pool converges on typical sizes.
func PutBuf(b *[]byte) {
	if b == nil || cap(*b) > maxLen/64 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
