package wal

import (
	"os"
	"path/filepath"
	"testing"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

func updateEntry(origin int, seq uint64) Entry {
	return Entry{
		Kind:   KindUpdate,
		Origin: origin,
		TVV:    vclock.Vector{seq},
		Writes: []storage.Write{{Ref: storage.RowRef{Table: "t", Key: seq}, Data: make([]byte, 64)}},
	}
}

func TestTruncateReclaimsFileBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 200; i++ {
		if _, err := l.Append(updateEntry(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	dropped, err := l.SetLowWater(150)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 150 {
		t.Fatalf("dropped %d entries, want 150", dropped)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("file did not shrink: %d -> %d bytes", before.Size(), after.Size())
	}
	if l.Base() != 150 || l.Len() != 200 {
		t.Fatalf("base=%d len=%d, want 150/200", l.Base(), l.Len())
	}
	// Truncated offsets are gone; retained ones keep their identity.
	if _, ok := l.Get(149); ok {
		t.Fatal("truncated offset 149 still readable")
	}
	if e, ok := l.Get(150); !ok || e.Offset != 150 {
		t.Fatalf("retained offset 150: ok=%v off=%d", ok, e.Offset)
	}

	// Appends continue after truncation with dense offsets.
	off, err := l.Append(updateEntry(0, 201))
	if err != nil || off != 200 {
		t.Fatalf("post-truncation append: off=%d err=%v", off, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the log resumes at its truncated base with the suffix intact.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Base() != 150 || l2.Len() != 201 {
		t.Fatalf("reopened base=%d len=%d, want 150/201", l2.Base(), l2.Len())
	}
	c := l2.Subscribe(0) // clamped up to base
	defer c.Close()
	e, ok := c.TryNext()
	if !ok || e.Offset != 150 || e.TVV[0] != 151 {
		t.Fatalf("first replayed entry: ok=%v off=%d seq=%v", ok, e.Offset, e.TVV)
	}
}

func TestTruncateFlooredByRegisteredCursor(t *testing.T) {
	l := New()
	for i := uint64(1); i <= 100; i++ {
		if _, err := l.Append(updateEntry(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	c := l.Subscribe(0)
	for i := 0; i < 30; i++ {
		c.Next()
	}

	dropped, err := l.SetLowWater(80)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 30 || l.Base() != 30 {
		t.Fatalf("dropped=%d base=%d, want 30/30 (cursor floors the low-water)", dropped, l.Base())
	}

	// The slow reader still sees a contiguous stream.
	if e, ok := c.Next(); !ok || e.Offset != 30 {
		t.Fatalf("cursor read after truncation: ok=%v off=%d", ok, e.Offset)
	}

	// Closing the cursor releases the floor up to the low-water mark.
	c.Close()
	dropped, err = l.SetLowWater(80)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 50 || l.Base() != 80 {
		t.Fatalf("dropped=%d base=%d after cursor close, want 50/80", dropped, l.Base())
	}
}

func TestFirstUpdateOffsetAfter(t *testing.T) {
	l := New()
	l.Append(updateEntry(0, 1))                               // off 0
	l.Append(Entry{Kind: KindGrant, Partitions: []uint64{7}}) // off 1
	l.Append(updateEntry(0, 2))                               // off 2
	l.Append(updateEntry(0, 3))                               // off 3

	for _, tc := range []struct{ seq, want uint64 }{
		{0, 0}, {1, 2}, {2, 3}, {3, 4}, {99, 4},
	} {
		if got := l.FirstUpdateOffsetAfter(tc.seq); got != tc.want {
			t.Errorf("FirstUpdateOffsetAfter(%d) = %d, want %d", tc.seq, got, tc.want)
		}
	}
}

func TestSetLowWaterNeverLowers(t *testing.T) {
	l := New()
	for i := uint64(1); i <= 10; i++ {
		l.Append(updateEntry(0, i))
	}
	if _, err := l.SetLowWater(8); err != nil {
		t.Fatal(err)
	}
	dropped, err := l.SetLowWater(3)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || l.Base() != 8 || l.lowWater != 8 {
		t.Fatalf("lowering: dropped=%d base=%d lw=%d, want 0/8/8", dropped, l.Base(), l.lowWater)
	}
}

// TestFullTruncationKeepsOffsetsAcrossReopen truncates a file-backed log up
// to its end: the newest record stays in the file, so the reopened log
// keeps its absolute offsets and appends continue after them instead of
// reusing offsets a checkpoint already names.
func TestFullTruncationKeepsOffsetsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if _, err := l.Append(updateEntry(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.SetLowWater(20); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 19 || l.Len() != 20 {
		t.Fatalf("base=%d len=%d, want 19/20", l.Base(), l.Len())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Base() != 19 || l2.Len() != 20 {
		t.Fatalf("reopened base=%d len=%d, want 19/20", l2.Base(), l2.Len())
	}
	if off, err := l2.Append(updateEntry(0, 21)); err != nil || off != 20 {
		t.Fatalf("append after reopen: off=%d err=%v, want 20", off, err)
	}
}
