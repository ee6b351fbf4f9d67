package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestLog creates a file-backed log with n update entries and closes
// it, returning the path.
func writeTestLog(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "site.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(Entry{Kind: KindUpdate, Origin: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := writeTestLog(t, 5)
	// A crash mid-write leaves a partial record: chop bytes off the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Len() != 4 {
		t.Fatalf("replayed %d entries after torn tail, want 4", l.Len())
	}
	if l.torn == 0 {
		t.Fatal("torn tail not reported")
	}
	// The file was truncated at the last intact record: appends resume and
	// a further reopen sees a clean log.
	if _, err := l.Append(Entry{Kind: KindUpdate, Origin: 0}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 5 || l2.torn != 0 {
		t.Fatalf("after repair+append: len=%d torn=%d, want 5, 0", l2.Len(), l2.torn)
	}
}

func TestOpenDetectsBitRot(t *testing.T) {
	path := writeTestLog(t, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit inside the LAST record. Walk the frames to find
	// its payload start.
	off := 0
	last := 0
	for off+frameHeaderSize < len(data) {
		last = off
		n := binary.LittleEndian.Uint32(data[off:])
		off += frameHeaderSize + int(n)
	}
	data[last+frameHeaderSize] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Len() != 4 {
		t.Fatalf("replayed %d entries with corrupt final record, want 4", l.Len())
	}
	if l.torn == 0 {
		t.Fatal("corruption not reported")
	}
}

func TestOpenCorruptLengthHeader(t *testing.T) {
	path := writeTestLog(t, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage length claiming more bytes than the file holds must be
	// treated as a torn tail, not an allocation or a partial read.
	hdr := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], ^uint32(0))
	if err := os.WriteFile(path, append(data, hdr...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Len() != 3 {
		t.Fatalf("replayed %d entries, want 3", l.Len())
	}
	if l.torn != frameHeaderSize {
		t.Fatalf("torn bytes = %d, want %d", l.torn, frameHeaderSize)
	}
}

// openRefuses appends one CRC-valid frame around payload to a three-frame
// log and checks that Open refuses the log, naming the path and the frame's
// byte offset, and leaves the file byte-identical.
func openRefuses(t *testing.T, payload []byte) {
	t.Helper()
	path := writeTestLog(t, 3)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data := appendFrame(append([]byte(nil), good...), payload)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err == nil {
		l.Close()
		t.Fatalf("Open accepted a checksummed frame that does not decode (payload %x)", payload)
	}
	if at := fmt.Sprintf("byte %d", len(good)); !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), at) {
		t.Fatalf("error %q does not name %s and %s", err, path, at)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("refused log was modified: %d bytes, want %d", len(after), len(data))
	}
}

// TestOpenRefusesNonCodecFrame: a frame that passes its checksum but does
// not start with the codec magic (say, a log written before the codec) is
// an error, not a torn tail to truncate away with every entry after it.
func TestOpenRefusesNonCodecFrame(t *testing.T) {
	openRefuses(t, []byte{0x42, 0xff, 0x00, 0x01})
}

// TestOpenRefusesUnknownFormatVersion: a checksummed frame from a newer
// format version is refused the same way.
func TestOpenRefusesUnknownFormatVersion(t *testing.T) {
	openRefuses(t, []byte{0x00, 0x02, 0x01, 0x00})
}

// TestOpenTruncatesZeroFilledTail: zeros after the last frame parse as
// zero-length frames whose CRC (0) matches, and stay a torn tail.
func TestOpenTruncatesZeroFilledTail(t *testing.T) {
	path := writeTestLog(t, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Len() != 3 || l.torn != 4096 {
		t.Fatalf("len=%d torn=%d, want 3, 4096", l.Len(), l.torn)
	}
}
