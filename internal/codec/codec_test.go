package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	buf := AppendHeader(nil, Version1)
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, math.MaxUint64)
	buf = AppendInt(buf, -1)
	buf = AppendInt(buf, math.MinInt64)
	buf = AppendInt(buf, math.MaxInt64)
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = AppendBytes(buf, []byte("payload"))
	buf = AppendBytes(buf, nil)
	buf = AppendString(buf, "accounts")
	buf = AppendString(buf, "")

	r := NewReader(buf)
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint: %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("uvarint max: %d", got)
	}
	if got := r.Int(); got != -1 {
		t.Fatalf("int: %d", got)
	}
	if got := r.Int(); got != math.MinInt64 {
		t.Fatalf("int min: %d", got)
	}
	if got := r.Int(); got != math.MaxInt64 {
		t.Fatalf("int max: %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("bytes: %q", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("nil bytes decoded as %q", got)
	}
	if got := r.String(); got != "accounts" {
		t.Fatalf("string: %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty string: %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("done: %v", err)
	}
}

func TestDecodedBytesDoNotAliasWire(t *testing.T) {
	wire := AppendHeader(nil, Version1)
	wire = AppendBytes(wire, []byte{1, 2, 3})
	r := NewReader(wire)
	got := r.Bytes()
	wire[len(wire)-1] = 99 // mutate the wire buffer after decode
	if got[2] != 3 {
		t.Fatal("decoded bytes alias the wire buffer")
	}
}

func TestSubSchemaRoundTrip(t *testing.T) {
	vec := vclock.Vector{4, 0, 9, math.MaxUint64}
	refs := []storage.RowRef{{Table: "a", Key: 1}, {Table: "b", Key: math.MaxUint64}}
	writes := []storage.Write{
		{Ref: storage.RowRef{Table: "t", Key: 7}, Data: []byte("v"), Deleted: false},
		{Ref: storage.RowRef{Table: "t", Key: 8}, Data: nil, Deleted: true},
	}
	kvs := []storage.KV{{Key: 3, Value: []byte("x")}, {Key: 4, Value: nil}}
	stamp := storage.Stamp{Origin: 2, Seq: 55}
	parts := []uint64{1, 1 << 40, 0}
	at := time.Now()

	buf := AppendHeader(nil, Version1)
	buf = AppendVector(buf, vec)
	buf = AppendRefs(buf, refs)
	buf = AppendWrites(buf, writes)
	buf = AppendKVs(buf, kvs)
	buf = AppendStamp(buf, stamp)
	buf = AppendUint64s(buf, parts)
	buf = AppendTime(buf, at)
	buf = AppendTime(buf, time.Time{})

	r := NewReader(buf)
	if got := r.Vector(nil); !got.Equal(vec) {
		t.Fatalf("vector: %v", got)
	}
	if got := r.Refs(); !reflect.DeepEqual(got, refs) {
		t.Fatalf("refs: %v", got)
	}
	if got := r.Writes(); !reflect.DeepEqual(got, writes) {
		t.Fatalf("writes: %v", got)
	}
	if got := r.KVs(); !reflect.DeepEqual(got, kvs) {
		t.Fatalf("kvs: %v", got)
	}
	if got := r.Stamp(); got != stamp {
		t.Fatalf("stamp: %v", got)
	}
	if got := r.Uint64s(); !reflect.DeepEqual(got, parts) {
		t.Fatalf("uint64s: %v", got)
	}
	if got := r.Time(); !got.Equal(at) {
		t.Fatalf("time: %v != %v", got, at)
	}
	if got := r.Time(); !got.IsZero() {
		t.Fatalf("zero time: %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("done: %v", err)
	}
}

func TestVectorDecodeReusesCapacity(t *testing.T) {
	vec := vclock.Vector{1, 2, 3}
	buf := AppendVector(nil, vec)
	scratch := make(vclock.Vector, 0, 8)
	r := &Reader{data: buf}
	got := r.Vector(scratch)
	if !got.Equal(vec) {
		t.Fatalf("vector: %v", got)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("decode did not reuse caller capacity")
	}
}

func TestHeaderRejections(t *testing.T) {
	if _, err := CheckHeader(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := CheckHeader([]byte{0x17, Version1}); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := CheckHeader([]byte{Magic, 0x7f}); err == nil {
		t.Fatal("unknown version accepted")
	}
	if body, err := CheckHeader([]byte{Magic, Version1, 42}); err != nil || len(body) != 1 {
		t.Fatalf("valid header rejected: %v %v", body, err)
	}
}

func TestReaderStickyErrors(t *testing.T) {
	// Truncated varint.
	r := &Reader{data: []byte{0x80}}
	if r.Uvarint() != 0 || r.Err() == nil {
		t.Fatal("truncated varint not detected")
	}
	// All later reads are zero-valued, no panic.
	if r.String() != "" || r.Bytes() != nil || r.Bool() {
		t.Fatal("post-error reads not sticky-zero")
	}

	// Length prefix larger than the payload.
	r = &Reader{data: AppendUvarint(nil, 1<<30)}
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("oversized length not detected")
	}

	// Trailing garbage.
	r = &Reader{data: []byte{0x01, 0xff}}
	_ = r.Uvarint()
	if err := r.Done(); err == nil {
		t.Fatal("trailing bytes not detected")
	}

	// Bad bool byte.
	r = &Reader{data: []byte{0x02}}
	if r.Bool() || r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestStringInterning(t *testing.T) {
	buf := AppendString(nil, "accounts")
	buf = AppendString(buf, "accounts")
	r := &Reader{data: buf}
	r.SetIntern(make(map[string]string))
	a, b := r.String(), r.String()
	if a != "accounts" || b != "accounts" {
		t.Fatalf("interned strings: %q %q", a, b)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("interning did not deduplicate backing arrays")
	}
}

func TestBufPool(t *testing.T) {
	b := GetBuf()
	*b = append(*b, 1, 2, 3)
	PutBuf(b)
	c := GetBuf()
	if len(*c) != 0 {
		t.Fatal("pooled buffer not reset")
	}
	PutBuf(c)
	PutBuf(nil) // must not panic
}

// TestStatsAccumulate checks that recorded encodes and decodes reach the
// registry series, each under its own surface label.
func TestStatsAccumulate(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	series := func(name string, s Surface) float64 {
		v, ok := reg.Snapshot().Value(name, obs.L("surface", s.String()))
		if !ok {
			t.Fatalf("%s{surface=%q} not registered", name, s)
		}
		return v
	}
	encBytes := series("dynamast_codec_encode_bytes_total", SurfaceWAL)
	encNanos := series("dynamast_codec_encode_nanos_total", SurfaceWAL)
	decBytes := series("dynamast_codec_decode_bytes_total", SurfaceRPC)
	ckptBytes := series("dynamast_codec_decode_bytes_total", SurfaceCheckpoint)
	RecordEncode(SurfaceWAL, 100, 5*time.Nanosecond)
	RecordEncode(SurfaceWAL, 50, 5*time.Nanosecond)
	RecordDecode(SurfaceRPC, 7, time.Nanosecond)
	if d := series("dynamast_codec_encode_bytes_total", SurfaceWAL) - encBytes; d != 150 {
		t.Fatalf("wal encode bytes grew by %v, want 150", d)
	}
	if d := series("dynamast_codec_encode_nanos_total", SurfaceWAL) - encNanos; d != 10 {
		t.Fatalf("wal encode nanos grew by %v, want 10", d)
	}
	if d := series("dynamast_codec_decode_bytes_total", SurfaceRPC) - decBytes; d != 7 {
		t.Fatalf("rpc decode bytes grew by %v, want 7", d)
	}
	if d := series("dynamast_codec_decode_bytes_total", SurfaceCheckpoint) - ckptBytes; d != 0 {
		t.Fatalf("checkpoint decode bytes grew by %v, want 0", d)
	}
}

// TestCountBoundedByPayload: a count no larger than the undecoded bytes
// decodes; a larger one fails the reader instead of sizing an allocation.
func TestCountBoundedByPayload(t *testing.T) {
	ok := &Reader{data: []byte{2, 0xaa, 0xbb}}
	if n := ok.Count(); n != 2 || ok.Err() != nil {
		t.Fatalf("Count = %d, %v; want 2, nil", n, ok.Err())
	}
	bad := &Reader{data: AppendUvarint(nil, 1<<40)}
	if n := bad.Count(); n != 0 || !errors.Is(bad.Err(), ErrCorrupt) {
		t.Fatalf("Count = %d, %v; want 0, ErrCorrupt", n, bad.Err())
	}

	// The sub-schemas size their allocations by Count: a few bytes claiming
	// 2^20 row refs fail before 24 MB of them are allocated.
	payload := AppendUvarint(AppendHeader(nil, Version1), 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(payload)
	refs := r.Refs()
	runtime.ReadMemStats(&after)
	if refs != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Refs = %d refs, %v; want nil, ErrCorrupt", len(refs), r.Err())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d-byte payload allocated %d bytes", len(payload), grew)
	}
}
