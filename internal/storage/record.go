// Package storage implements DynaMast's in-memory multi-version row store
// (the paper's Hekaton-like database component, §V-A1).
//
// Records live in row-oriented in-memory tables indexed by a uint64 primary
// key. Every update creates a new versioned record stamped with the origin
// site and that site's commit sequence number; a transaction reading at
// snapshot vector snap sees the newest version whose stamp (origin, seq)
// satisfies seq <= snap[origin]. Concurrent writers to the same record are
// mutually excluded with per-record locks (writes block, they do not
// abort); readers take no lock at all.
//
// The store keeps a bounded number of versions per record (four by default,
// matching the paper's empirically chosen setting) and discards older ones.
package storage

import (
	"sync"
	"sync/atomic"

	"dynamast/internal/vclock"
)

// Stamp identifies the committed transaction that produced a version: the
// site it originated at and its position in that site's commit order. It is
// the projection of the transaction version vector tvv onto the origin
// dimension, which is all MVCC visibility requires.
type Stamp struct {
	Origin int
	Seq    uint64
}

// VisibleAt reports whether a version with this stamp is contained in the
// snapshot snap.
func (s Stamp) VisibleAt(snap vclock.Vector) bool {
	if s.Origin < 0 || s.Origin >= len(snap) {
		return false
	}
	return s.Seq <= snap[s.Origin]
}

// MaxVersionCap is the largest version cap a store accepts: every record's
// fixed number of version slots.
const MaxVersionCap = 8

// Record is a multi-versioned row: one fixed-size object, carved from its
// table's record slab (see slabLen), holding the transaction write lock, the
// installer mutex and the version slots, newest first (slots
// past the store's cap stay nil). A version is the committed transaction's
// own Write cell (see Store.Apply), immutable once published, so readers walk
// the slots with atomic loads and take no lock. The write lock (Lock/Unlock)
// is held for the duration of the owning transaction, which may release it
// from another goroutine than the one that acquired it.
type Record struct {
	lock sync.Mutex // transaction write lock
	mu   sync.Mutex // serialises installers (commit path, refresh appliers, imports)
	v    [MaxVersionCap]atomic.Pointer[Write]
}

// Lock acquires the record's write lock, blocking until available.
func (r *Record) Lock() { r.lock.Lock() }

// Unlock releases the write lock.
func (r *Record) Unlock() { r.lock.Unlock() }

// install publishes w as the newest version, keeping at most maxVersions.
// The shift runs tail-first, so at every instant each retained version sits
// at its old slot or the next one: a reader walking upwards may meet one
// twice but never skips one; versions leave only by the last slot.
func (r *Record) install(w *Write, maxVersions int) {
	r.mu.Lock()
	for i := maxVersions - 1; i > 0; i-- {
		r.v[i].Store(r.v[i-1].Load())
	}
	r.v[0].Store(w)
	r.mu.Unlock()
}

// Read returns the newest version visible at snap. ok is false if no
// visible version exists or the visible version is a tombstone.
func (r *Record) Read(snap vclock.Vector) (data []byte, ok bool) {
	data, ok, _ = r.ReadChecked(snap)
	return data, ok
}

// visible returns the newest retained version visible at snap, or nil and
// the oldest version it met on the way (nil for a record with no versions).
func (r *Record) visible(snap vclock.Vector) (w, oldest *Write) {
	for i := range r.v {
		w = r.v[i].Load()
		if w == nil {
			break
		}
		if w.Stamp.VisibleAt(snap) {
			return w, nil
		}
		oldest = w
	}
	return nil, oldest
}

// ReadChecked is Read distinguishing a clean miss from an evicted one:
// evicted is true when the record holds versions but none is visible at
// snap, meaning either the key was created after the snapshot or — the case
// callers must not ignore — the version the snapshot could see was shifted
// off the end of the bounded chain by newer installs, before or during the
// walk. A transaction receiving evicted=true cannot trust the miss and should
// retry on a fresher snapshot. A visible tombstone is a clean miss.
func (r *Record) ReadChecked(snap vclock.Vector) (data []byte, ok, evicted bool) {
	w, oldest := r.visible(snap)
	if w == nil {
		return nil, false, oldest != nil
	}
	if w.Deleted {
		return nil, false, false
	}
	return w.Data, true, false
}

// ReadLatest returns the newest version regardless of snapshot; used for
// data shipping (LEAP) and replica bootstrap.
func (r *Record) ReadLatest() (data []byte, stamp Stamp, ok bool) {
	w := r.v[0].Load()
	if w == nil || w.Deleted {
		return nil, Stamp{}, false
	}
	return w.Data, w.Stamp, true
}

// HeadStamp returns the stamp of the newest version (tombstone or not);
// ok is false only for records with no versions at all.
func (r *Record) HeadStamp() (Stamp, bool) {
	w := r.v[0].Load()
	if w == nil {
		return Stamp{}, false
	}
	return w.Stamp, true
}

// VersionCount returns the current length of the version chain.
func (r *Record) VersionCount() int {
	n := 0
	for n < len(r.v) && r.v[n].Load() != nil {
		n++
	}
	return n
}
