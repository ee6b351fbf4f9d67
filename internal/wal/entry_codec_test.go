package wal

import (
	"reflect"
	"testing"
	"time"

	"dynamast/internal/codec"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

func compatEntries(n int) []Entry {
	at := time.Unix(0, 1700000000_000000000)
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Offset: uint64(i),
			Kind:   KindUpdate,
			Origin: i % 3,
			At:     at.Add(time.Duration(i) * time.Millisecond),
			TVV:    vclock.Vector{uint64(i), uint64(i * 2), 7},
			Writes: []storage.Write{
				{Ref: storage.RowRef{Table: "accounts", Key: uint64(i)}, Data: []byte{byte(i), 0xff}},
				{Ref: storage.RowRef{Table: "orders", Key: uint64(i * 10)}, Deleted: true},
			},
		}
		if i%4 == 3 {
			out[i].Kind = KindGrant
			out[i].Writes = nil
			out[i].Partitions = []uint64{uint64(i), uint64(i + 1)}
			out[i].Peer = (i + 1) % 3
			out[i].Epoch = uint64(i)
		}
	}
	return out
}

// stamped returns es as a log hands them out: every write carrying its
// commit's stamp, which Append and replay derive and no frame encodes.
func stamped(es []Entry) []Entry {
	for i := range es {
		es[i].stampWrites()
	}
	return es
}

func allEntries(t *testing.T, l *Log) []Entry {
	t.Helper()
	c := l.Subscribe(l.Base())
	defer c.Close()
	var out []Entry
	for {
		e, ok := c.TryNext()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// TestEntryRoundTrip checks the binary entry schema reproduces every field
// exactly, including nil for empty slices.
func TestEntryRoundTrip(t *testing.T) {
	for _, e := range compatEntries(8) {
		payload := appendEntryPayload(nil, &e)
		var got Entry
		if err := decodeEntryPayload(payload, &got, nil); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(e, got) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
		}
	}
}

// FuzzWALFrameDecode feeds arbitrary bytes to the entry payload decoder:
// it must never panic, it must refuse any payload without the codec header
// (the 0x42 seed), and whatever it accepts must re-encode and decode to the
// same entry (decode∘encode is the identity on accepted inputs).
func FuzzWALFrameDecode(f *testing.F) {
	for _, e := range compatEntries(4) {
		f.Add(appendEntryPayload(nil, &e))
	}
	f.Add([]byte{})
	f.Add([]byte{codec.Magic})
	f.Add([]byte{codec.Magic, codec.Version1})
	f.Add([]byte{codec.Magic, 0x7f, 0x01})
	f.Add([]byte{0x42, 0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var e Entry
		if err := decodeEntryPayload(payload, &e, map[string]string{}); err != nil {
			return
		}
		if payload[0] != codec.Magic {
			t.Fatalf("accepted a payload without the codec magic: %x", payload)
		}
		re := appendEntryPayload(nil, &e)
		var e2 Entry
		if err := decodeEntryPayload(re, &e2, nil); err != nil {
			t.Fatalf("re-decode of accepted entry failed: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("decode/encode not idempotent:\n got %+v\nwant %+v", e2, e)
		}
	})
}
