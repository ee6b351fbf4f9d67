// Package wal provides the ordered, durable update logs that DynaMast's
// replication managers publish to and subscribe from.
//
// The paper stores per-site logs in Apache Kafka, relying on two Kafka
// properties: per-log FIFO ordering with reliable delivery, and the ability
// to replay a log from a known offset for redo-based recovery. This package
// provides both: every site owns one Log; appends are totally ordered and
// assigned dense offsets; subscribers read entries in order via cursors;
// and a Log may be file-backed, in which case entries are encoded with the
// zero-allocation binary codec (internal/codec) to an append-only file and
// can be replayed after a crash.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/codec"
	"dynamast/internal/obs"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// Kind discriminates log entry types.
type Kind uint8

const (
	// KindUpdate carries a committed transaction's write set; replicas
	// apply it as a refresh transaction.
	KindUpdate Kind = iota + 1
	// KindRelease records that the origin site released mastership of
	// partitions (logged for selector/site recovery).
	KindRelease
	// KindGrant records that the origin site was granted mastership of
	// partitions.
	KindGrant
	// KindEpoch carries a sealed commit epoch: every transaction the origin
	// committed during one group-commit interval, coalesced into a single
	// record that replicas apply as one refresh unit. Its TVV is the epoch's
	// closing vector (element-wise max of the members' commit vectors; the
	// origin dimension is the last member's sequence).
	KindEpoch
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindUpdate:
		return "update"
	case KindRelease:
		return "release"
	case KindGrant:
		return "grant"
	case KindEpoch:
		return "epoch"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// On-disk framing: every record is [u32 length][u32 CRC-32C][payload], all
// little-endian, where each payload is a self-contained binary codec
// encoding of one Entry. The checksum turns silent corruption and torn tail
// writes into detectable conditions: Open verifies each frame and truncates
// the file at the last intact record instead of replaying garbage.
const frameHeaderSize = 8

// maxFrame bounds a frame's claimed length so a corrupt header cannot ask
// for an absurd allocation; anything larger is treated as corruption.
const maxFrame = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EpochTxn is one member transaction of a sealed commit epoch (KindEpoch):
// its commit vector, commit time, and write set. Members are ordered by the
// origin's commit sequence, which is dense across the epoch — member i
// carries sequence TVV[origin]-len(Txns)+1+i.
type EpochTxn struct {
	TVV    vclock.Vector
	At     time.Time
	Writes []storage.Write
}

// Entry is one record of a site's log: a committed update transaction to be
// propagated as a refresh transaction, a sealed commit epoch batching many
// of them, or a mastership change (release/grant) recorded for recovery.
type Entry struct {
	Offset     uint64
	Kind       Kind
	Origin     int           // site the entry originated at
	At         time.Time     // append time; replicas use it to model pipeline delay
	TVV        vclock.Vector // commit timestamp (KindUpdate); closing vector (KindEpoch)
	Writes     []storage.Write
	Partitions []uint64   // partitions whose mastership changed (release/grant)
	Peer       int        // the other site involved in a mastership change
	Epoch      uint64     // remaster epoch fencing the change (0 = unfenced)
	Txns       []EpochTxn // member transactions of a sealed epoch (KindEpoch only)
}

// IsUpdate reports whether the entry carries committed writes replicas must
// apply (a single update transaction or a sealed epoch of them).
func (e *Entry) IsUpdate() bool { return e.Kind == KindUpdate || e.Kind == KindEpoch }

// lastSeq returns the origin-dimension commit sequence the entry advances a
// replica to (0 for mastership records).
func (e *Entry) lastSeq() uint64 {
	if e.IsUpdate() && e.Origin >= 0 && e.Origin < len(e.TVV) {
		return e.TVV[e.Origin]
	}
	return 0
}

// FirstSeq returns the origin-dimension commit sequence of the entry's first
// member: the sequence itself for a single update, the opening sequence for
// a sealed epoch (its members are seq-dense through TVV[origin]).
func (e *Entry) FirstSeq() uint64 {
	last := e.lastSeq()
	if e.Kind == KindEpoch && len(e.Txns) > 0 && uint64(len(e.Txns)) <= last {
		return last - uint64(len(e.Txns)) + 1
	}
	return last
}

// stampWrites makes every write of an update entry carry the stamp of the
// commit that produced it: (origin, TVV[origin]) for a single update,
// (origin, FirstSeq+j) for epoch member j. Replicas install the entry's write
// cells by address (storage.Store.Apply), all sharing this one entry, so the
// stamps must be in place before the entry is readable. The stamp is derived,
// never encoded. A committing site has stamped its writes already and the
// loop only compares; entries decoded from a file are stamped here.
func (e *Entry) stampWrites() {
	if !e.IsUpdate() || e.Origin < 0 || e.Origin >= len(e.TVV) {
		return
	}
	stamp := func(ws []storage.Write, seq uint64) {
		st := storage.Stamp{Origin: e.Origin, Seq: seq}
		for i := range ws {
			if ws[i].Stamp != st {
				ws[i].Stamp = st
			}
		}
	}
	if e.Kind == KindUpdate {
		stamp(e.Writes, e.TVV[e.Origin])
		return
	}
	first := e.FirstSeq()
	for j := range e.Txns {
		stamp(e.Txns[j].Writes, first+uint64(j))
	}
}

// Log is one site's ordered update log. The zero value is not usable; use
// New or Open.
//
// File-backed logs persist with group commit: Append encodes the entry
// into an in-memory buffer under the log mutex, then one appender — the
// flush leader — writes every buffered byte to the file in a single write
// while later appenders queue behind it; when the leader returns, all of
// them are durable at once. Entries become readable by cursors only at
// the visibility watermark, which trails durability, so subscribers never
// replicate an update the origin could lose in a crash. In-memory logs
// advance the watermark immediately.
type Log struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries []Entry // entries[i] holds absolute offset base+i
	closed  bool

	// base is the absolute offset of entries[0]. It starts at 0 and rises
	// when truncation reclaims a checkpointed prefix; offsets are stable
	// across truncation (an entry keeps its offset for life).
	base uint64

	// lowWater is the truncation permission: a checkpoint that captured
	// everything below offset lowWater has committed, so the prefix
	// [base, lowWater) is dead weight once every registered cursor has
	// also passed it.
	lowWater uint64

	// cursors tracks live subscriptions; truncation never reclaims an
	// entry a registered cursor has yet to read. Cursor.Close unregisters.
	cursors map[*Cursor]struct{}

	// visible is the subscriber-visibility watermark (absolute): cursors
	// read offsets below it. Equal to base+len(entries) for in-memory
	// logs; for file-backed logs it advances when a flush makes entries
	// durable.
	visible uint64

	file       *os.File
	path       string // backing file path; "" for in-memory logs
	fileBacked bool

	// encScratch is the shared per-record encode buffer: Append and the
	// truncation rewrite both serialize entries through it (under mu), so
	// steady-state encoding allocates nothing.
	encScratch []byte

	// buf accumulates framed records for the next group commit; spare is
	// the buffer the previous flush drained, swapped back in so the flush
	// leader never allocates to capture its write set.
	buf   []byte
	spare []byte

	torn uint64 // trailing bytes discarded as torn/corrupt at Open

	flushing  bool       // a flush leader is writing outside mu
	flushCond *sync.Cond // signalled when a flush completes
	flushErr  error      // sticky: a failed flush poisons the log

	// updSeq is the origin-dimension commit sequence of the last
	// KindUpdate entry appended: what a fully caught-up replica's version
	// vector shows for this site (refresh-delay gauges compare against it).
	updSeq atomic.Uint64

	// Observability instruments (nil-safe; see Instrument).
	appendDur    *obs.Histogram
	flushDur     *obs.Histogram
	kindCounts   map[Kind]*obs.Counter
	flushes      *obs.Counter
	truncEntries *obs.Counter
	truncBytes   *obs.Counter
	siteID       int // set by Instrument; labels flight-recorder events
}

// New returns an in-memory log.
func New() *Log {
	l := &Log{cursors: make(map[*Cursor]struct{})}
	l.cond = sync.NewCond(&l.mu)
	l.flushCond = sync.NewCond(&l.mu)
	return l
}

// Open returns a file-backed log at path, replaying any entries already
// present (recovery). Every record's CRC-32C is verified; a torn tail write
// (expected after a crash) — a short frame, a checksum mismatch, or a
// zero-length frame such as a zero-filled tail — is detected, warned about,
// and truncated away so the log ends at its last intact record. A frame
// that passes its checksum but does not decode was written whole in a
// format this build does not read: Open returns an error naming its byte
// offset and leaves the file unmodified. Appends are written through to the
// file.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: read %s: %w", path, err)
	}

	// Walk the frames, verifying each checksum and decoding the record;
	// `good` is the byte offset after the last intact record. One intern
	// dictionary spans the walk so repeated table names decode to shared
	// strings.
	l := New()
	good := 0
	decStart := time.Now()
	intern := make(map[string]string)
	for off := 0; off+frameHeaderSize <= len(data); {
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxFrame || off+frameHeaderSize+int(n) > len(data) {
			break // torn header or short payload
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+int(n)]
		if n == 0 || crc32.Checksum(payload, crcTable) != sum {
			// Bit rot or a torn write inside the record. An empty payload's
			// CRC-32C is 0, so a zero-filled tail "passes" its check; the
			// writer never emits a payload shorter than the codec header.
			break
		}
		var e Entry
		if err := decodeEntryPayload(payload, &e, intern); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %s: frame at byte %d passes its checksum but does not decode: %w", path, off, err)
		}
		e.stampWrites()
		// The first record fixes the log's base: a truncated log legally
		// starts at a non-zero offset. After that, offsets must be dense.
		if len(l.entries) == 0 {
			l.base = e.Offset
		} else if e.Offset != l.base+uint64(len(l.entries)) {
			f.Close()
			return nil, fmt.Errorf("wal: %s corrupt: offset %d at position %d", path, e.Offset, l.base+uint64(len(l.entries)))
		}
		l.entries = append(l.entries, e)
		if seq := e.lastSeq(); seq > 0 {
			l.updSeq.Store(seq)
		}
		off += frameHeaderSize + int(n)
		good = off
	}
	codec.RecordDecode(codec.SurfaceWAL, good, time.Since(decStart))
	if good < len(data) {
		l.torn = uint64(len(data) - good)
		fmt.Fprintf(os.Stderr, "wal: %s: dropping %d torn/corrupt trailing bytes (log intact through byte %d)\n",
			path, l.torn, good)
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate %s: %w", path, err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	l.visible = l.base + uint64(len(l.entries))
	l.lowWater = l.base
	l.file = f
	l.path = path
	l.fileBacked = true
	return l, nil
}

// Append assigns the next offset to e, appends it, persists it if the log
// is file-backed (group commit: the append returns once a flush covering
// it completes, typically batching many concurrent appends into one file
// write), wakes subscribers, and returns the assigned offset.
func (l *Log) Append(e Entry) (uint64, error) {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append to closed log")
	}
	if l.flushErr != nil {
		return 0, l.flushErr
	}
	e.Offset = l.base + uint64(len(l.entries))
	if e.At.IsZero() {
		e.At = start
	}
	e.stampWrites()
	if l.fileBacked {
		// Each record is a self-contained binary-codec message framed with
		// length + CRC-32C, so replay can verify and decode frames
		// independently. The encode scratch is shared (under mu) with the
		// truncation rewrite; steady state allocates nothing.
		l.encScratch = encodeTimed(l.encScratch[:0], &e)
		l.buf = appendFrame(l.buf, l.encScratch)
	}
	l.entries = append(l.entries, e)
	if seq := e.lastSeq(); seq > 0 {
		l.updSeq.Store(seq)
	}
	if !l.fileBacked {
		// In-memory: immediately visible.
		l.visible = l.base + uint64(len(l.entries))
		l.cond.Broadcast()
	} else if err := l.waitDurable(e.Offset); err != nil {
		return 0, err
	}
	l.kindCounts[e.Kind].Inc()
	l.appendDur.ObserveDuration(time.Since(start))
	return e.Offset, nil
}

// waitDurable blocks until a flush covering offset off completes, electing
// this goroutine flush leader when none is running. Caller holds l.mu.
func (l *Log) waitDurable(off uint64) error {
	for l.visible <= off && l.flushErr == nil {
		if l.flushing {
			l.flushCond.Wait()
			continue
		}
		l.flushLocked()
	}
	return l.flushErr
}

// flushLocked drains the encode buffer to the file in one write, releasing
// l.mu during the write (appenders keep encoding into the swapped-in spare
// buffer), and advances the visibility watermark over everything the write
// covered. The two buffers rotate: the leader takes l.buf, installs
// l.spare for concurrent appenders, and puts its drained buffer back as
// the next spare — so steady-state flushing allocates nothing. Caller
// holds l.mu; it is held again on return.
func (l *Log) flushLocked() {
	l.flushing = true
	data := l.buf
	l.buf = l.spare[:0]
	l.spare = nil // owned by this flush until it completes
	target := l.base + uint64(len(l.entries))
	f := l.file
	l.mu.Unlock()
	var err error
	flushStart := time.Now()
	if len(data) > 0 && f != nil {
		_, err = f.Write(data)
	}
	flushTook := time.Since(flushStart)
	l.mu.Lock()
	l.flushDur.ObserveDuration(flushTook)
	l.flushing = false
	l.spare = data[:0]
	if err != nil {
		if l.flushErr == nil {
			l.flushErr = fmt.Errorf("wal: flush: %w", err)
		}
	} else if target > l.visible {
		l.visible = target
	}
	l.flushes.Inc()
	l.cond.Broadcast()
	l.flushCond.Broadcast()
}

// LastUpdateSeq returns the commit sequence number of the newest update
// entry published to this log (the origin site's own version-vector
// dimension when it committed).
func (l *Log) LastUpdateSeq() uint64 { return l.updSeq.Load() }

// Instrument registers the log's metrics as site siteID's update log:
// per-kind append counters, an append-latency histogram, and publish-state
// gauges. Call once, before serving traffic.
func (l *Log) Instrument(reg *obs.Registry, siteID int) {
	if reg == nil {
		return
	}
	site := obs.Site(siteID)
	l.mu.Lock()
	l.siteID = siteID
	l.appendDur = reg.Histogram("dynamast_wal_append_seconds", site)
	l.flushDur = reg.Histogram("dynamast_wal_flush_seconds", site)
	l.flushes = reg.Counter("dynamast_wal_flushes_total", site)
	l.truncEntries = reg.Counter("dynamast_wal_truncated_entries_total", site)
	l.truncBytes = reg.Counter("dynamast_wal_truncated_bytes_total", site)
	l.kindCounts = map[Kind]*obs.Counter{
		KindUpdate:  reg.Counter("dynamast_wal_entries_total", site, obs.L("kind", KindUpdate.String())),
		KindRelease: reg.Counter("dynamast_wal_entries_total", site, obs.L("kind", KindRelease.String())),
		KindGrant:   reg.Counter("dynamast_wal_entries_total", site, obs.L("kind", KindGrant.String())),
		KindEpoch:   reg.Counter("dynamast_wal_entries_total", site, obs.L("kind", KindEpoch.String())),
	}
	l.mu.Unlock()
	reg.Func("dynamast_wal_entries", obs.KindGauge,
		func() float64 { return float64(l.Len()) }, site)
	reg.Func("dynamast_wal_last_update_seq", obs.KindGauge,
		func() float64 { return float64(l.LastUpdateSeq()) }, site)
}

// Len returns the absolute end offset of the published (subscriber-visible)
// log: the number of entries ever published, unaffected by truncation.
func (l *Log) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.visible
}

// Base returns the absolute offset of the oldest retained entry (0 until
// truncation has reclaimed a prefix).
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// FirstUpdateOffsetAfter returns the absolute offset of the first published
// update entry whose origin-dimension commit sequence exceeds seq, or the
// log's end offset when seq already covers every published update. Because a
// site's commit sequences are assigned in append order, this is the exact
// replay start for a replica whose version vector shows seq for this origin.
func (l *Log) FirstUpdateOffsetAfter(seq uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.entries {
		off := l.base + uint64(i)
		if off >= l.visible {
			break
		}
		e := &l.entries[i]
		if e.lastSeq() > seq {
			return off
		}
	}
	return l.visible
}

// SetLowWater raises the truncation low-water mark to off (never lowered)
// and reclaims the dead prefix: every entry below min(low-water, slowest
// registered cursor, durability watermark) is dropped from memory and — for
// file-backed logs — rewritten out of the backing file via an atomic
// temp-file rename, so a crash mid-truncation leaves either the old or the
// new file, both valid. Returns how many entries were reclaimed.
func (l *Log) SetLowWater(off uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off > l.lowWater {
		l.lowWater = off
	}
	floor := l.lowWater
	if floor > l.visible {
		floor = l.visible
	}
	// A file-backed log keeps its newest entry: a reopened log takes its
	// base from the first record, so an emptied file would restart offsets
	// at 0 under checkpoints that name absolute offsets.
	if l.fileBacked && floor == l.visible && floor > 0 {
		floor--
	}
	for c := range l.cursors {
		if c.next < floor {
			floor = c.next
		}
	}
	if floor <= l.base || l.closed {
		return 0, nil
	}
	dropped := floor - l.base

	if l.fileBacked {
		// Quiesce flushing: the rewrite must see a stable durable prefix
		// and must not race a leader's file write.
		for l.flushing {
			l.flushCond.Wait()
		}
		if l.flushErr != nil {
			return 0, l.flushErr
		}
		var oldSize int64
		if st, err := l.file.Stat(); err == nil {
			oldSize = st.Size()
		}
		nf, err := l.rewriteFrom(dropped)
		if err != nil {
			return 0, fmt.Errorf("wal: truncate %s: %w", l.path, err)
		}
		l.file.Close()
		l.file = nf
		if st, err := nf.Stat(); err == nil && oldSize > st.Size() {
			l.truncBytes.Add(uint64(oldSize - st.Size()))
		}
	}

	l.entries = append([]Entry(nil), l.entries[dropped:]...)
	l.base = floor
	l.truncEntries.Add(dropped)
	obs.RecordEvent(obs.FlightWALTruncate, l.siteID,
		"truncated %d entries, new base %d (low-water %d)", dropped, l.base, l.lowWater)
	return dropped, nil
}

// rewriteFrom writes the retained durable suffix (entries[keep:] up to the
// durability watermark) to a temp file and renames it over the log's path,
// returning the new file positioned for appends. Caller holds l.mu with no
// flush in flight; pending undurable frames stay in l.buf and land in the
// new file on the next flush.
func (l *Log) rewriteFrom(keep uint64) (*os.File, error) {
	tmp := l.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// Re-encode the retained suffix through the same shared scratch the
	// append path uses (caller holds mu, so the buffers are quiescent).
	durable := l.visible - l.base // entries with bytes already in the file
	var out []byte
	for i := keep; i < durable; i++ {
		l.encScratch = encodeTimed(l.encScratch[:0], &l.entries[i])
		out = appendFrame(out, l.encScratch)
	}
	if _, err := nf.Write(out); err != nil {
		nf.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return nil, err
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return nil, err
	}
	return nf, nil
}

// Close flushes any buffered appends, marks the log closed, waking blocked
// cursors (their Next returns ok=false once drained), and closes the
// backing file if any.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.fileBacked && len(l.entries) > 0 {
		// Drain the tail (also waits out any in-flight leader).
		_ = l.waitDurable(l.base + uint64(len(l.entries)) - 1)
	}
	for l.flushing {
		l.flushCond.Wait()
	}
	l.closed = true
	l.cond.Broadcast()
	l.flushCond.Broadcast()
	f := l.file
	l.file = nil
	l.mu.Unlock()
	if f != nil {
		return f.Close()
	}
	return nil
}

// Cursor reads a log in order starting at a subscription offset. A live
// cursor pins the log's truncation floor at its position; callers that
// abandon a cursor before the log closes must Close it, or the prefix it
// has yet to read is retained forever.
type Cursor struct {
	log  *Log
	next uint64
}

// Subscribe returns a registered cursor positioned at offset from (clamped
// up to the oldest retained entry when the prefix was already truncated).
func (l *Log) Subscribe(from uint64) *Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base {
		from = l.base
	}
	c := &Cursor{log: l, next: from}
	l.cursors[c] = struct{}{}
	return c
}

// Close unregisters the cursor so it no longer pins the truncation floor.
// Reads after Close still work but lose the retention guarantee. Idempotent.
func (c *Cursor) Close() {
	l := c.log
	l.mu.Lock()
	delete(l.cursors, c)
	l.mu.Unlock()
}

// NextBatch blocks until at least one entry is available, then appends
// every available entry — up to max; max <= 0 means unbounded — to dst and
// returns it. One cursor wake drains the whole published backlog, so a
// subscriber that fell behind pays the wake/lock cost once per batch
// instead of once per entry. ok is false when the log was closed and fully
// drained (any remaining published entries are still returned first).
func (c *Cursor) NextBatch(dst []Entry, max int) ([]Entry, bool) {
	l := c.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if c.next < l.base {
		c.next = l.base
	}
	for c.next >= l.visible {
		if l.closed {
			return dst, false
		}
		l.cond.Wait()
	}
	n := l.visible - c.next
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	i := c.next - l.base
	dst = append(dst, l.entries[i:i+n]...)
	c.next += n
	return dst, true
}

// batchPool recycles []Entry buffers for NextBatch consumers (refresh
// appliers, recovery catch-up): a subscriber loop gets one buffer for its
// lifetime and returns it on exit, so per-loop batch storage is shared
// across subscriber generations instead of re-grown by each.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]Entry, 0, 64)
		return &b
	},
}

// GetBatch returns a pooled, zero-length entry buffer for NextBatch.
func GetBatch() *[]Entry { return batchPool.Get().(*[]Entry) }

// PutBatch zeroes and returns an entry buffer to the pool. Zeroing drops
// the entries' references to write sets and vectors, so a parked pool
// buffer never pins replicated payload memory.
func PutBatch(b *[]Entry) {
	if b == nil {
		return
	}
	s := (*b)[:cap(*b)]
	clear(s)
	*b = s[:0]
	batchPool.Put(b)
}

// TryNext returns the next entry if one is available without blocking.
func (c *Cursor) TryNext() (Entry, bool) {
	l := c.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if c.next < l.base {
		c.next = l.base
	}
	if c.next >= l.visible {
		return Entry{}, false
	}
	e := l.entries[c.next-l.base]
	c.next++
	return e, true
}

// Offset returns the cursor's next read position.
func (c *Cursor) Offset() uint64 { return c.next }

// Broker groups the per-site logs of a cluster, mirroring the paper's
// "distinct Kafka logs for updates from each site".
type Broker struct {
	logs []*Log
}

// NewBroker returns a broker with m in-memory logs.
func NewBroker(m int) *Broker {
	b := &Broker{logs: make([]*Log, m)}
	for i := range b.logs {
		b.logs[i] = New()
	}
	return b
}

// OpenBroker returns a broker with m file-backed logs under dir, replaying
// existing contents.
func OpenBroker(dir string, m int) (*Broker, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &Broker{logs: make([]*Log, m)}
	for i := range b.logs {
		l, err := Open(fmt.Sprintf("%s/site-%d.wal", dir, i))
		if err != nil {
			b.Close()
			return nil, err
		}
		b.logs[i] = l
	}
	return b, nil
}

// Log returns site i's log.
func (b *Broker) Log(i int) *Log { return b.logs[i] }

// Instrument registers every log's metrics in reg (see Log.Instrument).
func (b *Broker) Instrument(reg *obs.Registry) {
	reg.Help("dynamast_wal_entries_total", "Update-log appends by site and entry kind.")
	reg.Help("dynamast_wal_append_seconds", "Update-log append (publish) latency per site.")
	reg.Help("dynamast_wal_entries", "Entries currently retained in each site's update log.")
	reg.Help("dynamast_wal_last_update_seq", "Commit sequence of the newest update published per site.")
	reg.Help("dynamast_wal_flushes_total", "Group-commit file flushes per site (appends/flushes = mean batch size).")
	reg.Help("dynamast_wal_flush_seconds", "Group-commit file write latency per site (leader's write syscall).")
	reg.Help("dynamast_wal_truncated_entries_total", "Log entries reclaimed by checkpoint-driven prefix truncation.")
	reg.Help("dynamast_wal_truncated_bytes_total", "Backing-file bytes reclaimed by prefix truncation.")
	for i, l := range b.logs {
		l.Instrument(reg, i)
	}
}

// Sites returns the number of logs.
func (b *Broker) Sites() int { return len(b.logs) }

// Close closes every log.
func (b *Broker) Close() error {
	var first error
	for _, l := range b.logs {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
