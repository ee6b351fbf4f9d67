package storage

import (
	"math"

	"dynamast/internal/vclock"
)

// Snapshot export/import: the walk a checkpoint makes over the store.
//
// ExportAt visits every record once and emits the version a reader at
// snapshot svv would observe, without taking any write locks — concurrent
// update transactions keep committing while a checkpoint streams out. The
// subtlety is the bounded version chain: a record updated more than
// maxVersions times during the walk may have evicted the version that was
// visible at svv. In that case ExportAt falls back to the oldest retained
// version, which is necessarily NEWER than svv. That is safe for
// checkpointing because recovery replays the WAL suffix past svv anyway:
// the too-new version's own log entry is in that suffix and re-installs
// itself on top, so after replay the chain's newest-first prefix is exactly
// what a crash-free site would hold.

// ExportAt streams the store's contents as observed at snapshot svv to fn,
// table by table. Rows whose visible version is a tombstone (or that have
// no version at or before svv and no retained newer version) are skipped:
// an absent row and a deleted row are indistinguishable to readers, and
// suffix replay re-installs any post-svv tombstone. A non-nil match limits
// the walk to the rows it accepts (one partition's, for a replica's
// bootstrap); it runs under the table's index lock, before any record is
// read, and must not use the store. fn returning false stops the walk
// early; ExportAt reports whether the walk completed.
func (s *Store) ExportAt(svv vclock.Vector, match func(table string, key uint64) bool, fn func(table string, key uint64, data []byte, stamp Stamp) bool) bool {
	for _, name := range s.TableNames() {
		t := s.Table(name)
		if t == nil {
			continue
		}
		var keep func(key uint64) bool
		if match != nil {
			keep = func(key uint64) bool { return match(name, key) }
		}
		if !t.exportAt(name, svv, keep, fn) {
			return false
		}
	}
	return true
}

// exportAt walks one table in key order, limited to the keys keep accepts
// unless keep is nil. The index entries are copied out under the index read
// lock (see walk and refsMatching); version reads and fn run outside it.
func (t *Table) exportAt(name string, svv vclock.Vector, keep func(key uint64) bool, fn func(table string, key uint64, data []byte, stamp Stamp) bool) bool {
	var refs []recRef
	if keep == nil {
		refs = t.refs(0, math.MaxUint64)
	} else {
		refs = t.refsMatching(keep)
	}
	for _, e := range refs {
		if data, stamp, ok := e.rec.ExportAt(svv); ok && !fn(name, e.key, data, stamp) {
			return false
		}
	}
	return true
}

// ExportAt returns the version of the record a checkpoint at snapshot snap
// should carry: the newest version visible at snap, or — when concurrent
// writers evicted every snap-visible version from the bounded chain — the
// oldest retained version (newer than snap; its redo entry is in the replay
// suffix). ok is false for tombstones and empty records.
func (r *Record) ExportAt(snap vclock.Vector) (data []byte, stamp Stamp, ok bool) {
	w, oldest := r.visible(snap)
	if w == nil {
		// Created after snap, or the cap evicted the visible version: the
		// oldest retained one is safe to export (see package comment).
		w = oldest
	}
	if w == nil || w.Deleted {
		return nil, Stamp{}, false
	}
	return w.Data, w.Stamp, true
}

// ImportRow installs one row with the given stamp, unconditionally: the
// initial load (under the zero stamp, visible at every snapshot) and
// recovery rebuilding a store from a snapshot file before replaying the WAL
// suffix on top.
func (s *Store) ImportRow(table string, key uint64, data []byte, stamp Stamp) {
	s.CreateTable(table).Record(key, true).install(s.newCell(data, stamp), s.maxVersions)
}

// newCell returns a version cell for an imported row, carved from the
// store's cell slab (see slabLen): an import, unlike a commit, has no write
// set whose elements could serve as the cells.
func (s *Store) newCell(data []byte, stamp Stamp) *Write {
	s.cellMu.Lock()
	defer s.cellMu.Unlock()
	if len(s.cells) == 0 {
		s.cells = make([]Write, slabLen)
	}
	w := &s.cells[0]
	s.cells = s.cells[1:]
	w.Data, w.Stamp = data, stamp
	return w
}

// ImportRowIfNewer is ImportRow guarded against replay inversion: when the
// record already holds versions AND the row is at or below applied[origin]
// (the importer's clock — everything the running appliers have installed for
// that origin), the import is skipped and false returned. Install prepends
// blindly and reads are first-visible-wins, so importing an old snapshot row
// over a head some applier already advanced past would otherwise shadow the
// newer state permanently. An empty record always installs: rows that
// predate the retained WAL (initial loads, truncated prefixes) exist only in
// the snapshot.
func (s *Store) ImportRowIfNewer(table string, key uint64, data []byte, stamp Stamp, applied vclock.Vector) bool {
	t := s.CreateTable(table)
	r := t.Record(key, true)
	if r.VersionCount() > 0 && stamp.Origin < len(applied) && stamp.Seq <= applied[stamp.Origin] {
		return false
	}
	r.install(s.newCell(data, stamp), s.maxVersions)
	return true
}

// ImportRowSuperseding installs a row exported from another store, guarded
// against shadowing newer local state: the import proceeds only when the
// record is empty, or when the local head version was already contained in
// the exporter's snapshot (srcVV) — meaning the exported version is at least
// as new as anything held here. A local head NOT visible at srcVV is ahead
// of the exporter (it arrived through a path the exporter had not observed)
// and must not be buried; version chains are newest-first, so a late stale
// install would poison every subsequent snapshot read. Replica-add
// bootstraps and recovery re-bootstraps use this: unlike ImportRowIfNewer's
// applied-vector guard, it stays correct when the importer's clock covers
// sequences whose writes were filtered out (partial replication advances the
// svv past skipped entries).
func (s *Store) ImportRowSuperseding(table string, key uint64, data []byte, stamp Stamp, srcVV vclock.Vector) bool {
	t := s.CreateTable(table)
	r := t.Record(key, true)
	if head, ok := r.HeadStamp(); ok {
		if head == stamp {
			return false // exactly this version is already installed
		}
		if !head.VisibleAt(srcVV) {
			return false // local state is ahead of the exporter
		}
	}
	r.install(s.newCell(data, stamp), s.maxVersions)
	return true
}
