package wal

import (
	"os"
	"path/filepath"
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
// exactly, including the nil/empty conventions gob established.
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

// TestLegacyLogReplays proves a log written wholly by a pre-codec (gob)
// build opens and replays to identical entries through the fallback reader.
func TestLegacyLogReplays(t *testing.T) {
	codec.Reset()
	path := filepath.Join(t.TempDir(), "site-0.wal")
	want := compatEntries(10)
	if err := WriteLegacyLog(path, want); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := allEntries(t, l); !reflect.DeepEqual(got, stamped(want)) {
		t.Fatalf("legacy replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if n := codec.LegacyFrames(codec.SurfaceWAL); n != uint64(len(want)) {
		t.Fatalf("legacy frame counter = %d, want %d", n, len(want))
	}
}

// TestMixedFormatLogReplays proves the upgrade scenario end to end: a log
// whose prefix was written by a gob build and whose suffix was appended by
// this build (binary format) replays to the exact combined entry sequence,
// and survives a further reopen.
func TestMixedFormatLogReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.wal")
	want := compatEntries(12)

	// The "old build" writes the first half in gob frames.
	if err := WriteLegacyLog(path, want[:6]); err != nil {
		t.Fatal(err)
	}

	// The "new build" opens the log and appends the second half — these
	// frames are binary-format, in the same file.
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range want[6:] {
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	want = stamped(want)
	if got := allEntries(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed log mismatch after append:\n got %+v\nwant %+v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A second recovery replays the gob prefix and binary suffix again.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := allEntries(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed log mismatch after reopen:\n got %+v\nwant %+v", got, want)
	}
}

// TestTruncationRewritesLegacyToBinary checks that the compaction rewrite
// upgrades legacy frames in place: after SetLowWater on a gob-written log,
// the surviving suffix is rewritten in the binary format and still replays.
func TestTruncationRewritesLegacyToBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.wal")
	want := compatEntries(10)
	if err := WriteLegacyLog(path, want); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SetLowWater(4); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	codec.Reset()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := allEntries(t, l2); !reflect.DeepEqual(got, stamped(want)[4:]) {
		t.Fatalf("post-truncation replay mismatch:\n got %+v\nwant %+v", got, want[4:])
	}
	if n := codec.LegacyFrames(codec.SurfaceWAL); n != 0 {
		t.Fatalf("rewritten log still contains %d legacy frames", n)
	}
}

// FuzzWALFrameDecode feeds arbitrary bytes to the entry payload decoder:
// it must never panic, and whatever it accepts must re-encode and decode
// to the same entry (decode∘encode is the identity on accepted inputs).
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

// TestLegacyLogFileIsGobFramed sanity-checks the legacy writer really does
// produce pre-codec bytes: no payload may start with the codec magic.
func TestLegacyLogFileIsGobFramed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.wal")
	if err := WriteLegacyLog(path, compatEntries(3)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for off < len(data) {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		payload := data[off+frameHeaderSize : off+frameHeaderSize+n]
		if codec.IsBinary(payload) {
			t.Fatal("legacy writer produced a binary-format payload")
		}
		off += frameHeaderSize + n
	}
}
