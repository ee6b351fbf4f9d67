package wal

import (
	"path/filepath"
	"testing"
)

// benchEntry is a representative update: a 2-write commit with a 3-site
// vector, the shape the WAL encodes on every transaction.
func benchEntry() Entry {
	e := compatEntries(2)[1]
	return e
}

// BenchmarkWALEncodeEntry isolates entry serialization — the work Append
// does under the log mutex.
func BenchmarkWALEncodeEntry(b *testing.B) {
	e := benchEntry()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendEntryPayload(buf[:0], &e)
	}
}

// BenchmarkWALDecodeEntry isolates entry deserialization — the per-frame
// work of replay.
func BenchmarkWALDecodeEntry(b *testing.B) {
	e := benchEntry()
	payload := appendEntryPayload(nil, &e)
	intern := make(map[string]string)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out Entry
		if err := decodeEntryPayload(payload, &out, intern); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures the full durable append path — encode, frame,
// group commit to the file — from a single appender. The allocs/op figure
// is the acceptance criterion: the encode path itself must not allocate
// (steady-state allocations come only from retaining the entry).
func BenchmarkWALAppend(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	e := benchEntry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures Open over a 10k-entry log — the
// restart-latency contribution of entry decoding.
func BenchmarkWALReplay(b *testing.B) {
	const n = 10_000
	path := filepath.Join(b.TempDir(), "bench.wal")
	l, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := benchEntry()
		e.Offset = uint64(i)
		if _, err := l.Append(e); err != nil {
			b.Fatal(err)
		}
	}
	l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if l.Len() != n {
			b.Fatalf("replayed %d entries", l.Len())
		}
		l.Close()
	}
}
