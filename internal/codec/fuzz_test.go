package codec

import (
	"bytes"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// FuzzCodecRoundTrip builds a structured payload exercising every primitive
// and sub-schema from fuzzer-chosen values, encodes it, and requires the
// decode to reproduce it exactly and consume the payload fully.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), false, []byte(nil), "", uint64(1), int64(1), uint8(1))
	f.Add(uint64(1<<40), int64(-1), true, []byte("data"), "accounts", uint64(77), int64(time.Now().UnixNano()), uint8(3))
	f.Fuzz(func(t *testing.T, u uint64, i int64, b bool, data []byte, s string, key uint64, nanos int64, dims uint8) {
		vec := make(vclock.Vector, int(dims)%9)
		for k := range vec {
			vec[k] = u + uint64(k)
		}
		writes := []storage.Write{{Ref: storage.RowRef{Table: s, Key: key}, Data: data, Deleted: b}}
		at := time.Unix(0, nanos)

		buf := AppendHeader(nil, Version1)
		buf = AppendUvarint(buf, u)
		buf = AppendInt(buf, i)
		buf = AppendBool(buf, b)
		buf = AppendBytes(buf, data)
		buf = AppendString(buf, s)
		buf = AppendVector(buf, vec)
		buf = AppendWrites(buf, writes)
		buf = AppendStamp(buf, storage.Stamp{Origin: int(i % 1024), Seq: u})
		buf = AppendTime(buf, at)

		r := NewReader(buf)
		if got := r.Uvarint(); got != u {
			t.Fatalf("uvarint %d != %d", got, u)
		}
		if got := r.Int(); got != i {
			t.Fatalf("int %d != %d", got, i)
		}
		if got := r.Bool(); got != b {
			t.Fatalf("bool %v != %v", got, b)
		}
		gotData := r.Bytes()
		if len(gotData) != len(data) || (len(data) > 0 && !bytes.Equal(gotData, data)) {
			t.Fatalf("bytes %q != %q", gotData, data)
		}
		if got := r.String(); got != s {
			t.Fatalf("string %q != %q", got, s)
		}
		gotVec := r.Vector(nil)
		if !gotVec.Equal(vec) {
			t.Fatalf("vector %v != %v", gotVec, vec)
		}
		gotWrites := r.Writes()
		if len(gotWrites) != 1 || gotWrites[0].Ref != writes[0].Ref ||
			gotWrites[0].Deleted != writes[0].Deleted ||
			!bytes.Equal(gotWrites[0].Data, writes[0].Data) {
			t.Fatalf("writes %v != %v", gotWrites, writes)
		}
		if got := r.Stamp(); got != (storage.Stamp{Origin: int(i % 1024), Seq: u}) {
			t.Fatalf("stamp %v", got)
		}
		gotAt := r.Time()
		if nanos == 0 {
			if !gotAt.IsZero() {
				t.Fatalf("epoch nanos decoded as %v", gotAt)
			}
		} else if !gotAt.Equal(at) {
			t.Fatalf("time %v != %v", gotAt, at)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("done: %v", err)
		}
	})
}

// FuzzReaderGarbage throws arbitrary bytes at every decoder; the only
// requirements are "no panic" and "errors are sticky" — garbage must never
// decode into an out-of-bounds access or infinite loop.
func FuzzReaderGarbage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{Magic, Version1, 0x05, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &Reader{data: data}
		_ = r.Uvarint()
		_ = r.Int()
		_ = r.Bool()
		_ = r.Bytes()
		_ = r.String()
		_ = r.Vector(nil)
		_ = r.Refs()
		_ = r.Writes()
		_ = r.KVs()
		_ = r.Stamp()
		_ = r.Uint64s()
		_ = r.Time()
		_ = r.Done()
		// Header-checked variant as well.
		r2 := NewReader(data)
		_ = r2.Writes()
		_ = r2.Err()
	})
}
