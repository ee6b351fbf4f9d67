package sitemgr

import (
	"dynamast/internal/checkpoint"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// Checkpoint integration: a site exports a consistent snapshot of its store
// without blocking writers, and restores one before suffix replay.

// WriteSnapshot captures the site's current version vector and streams the
// store as observed at it into w. Commits proceed concurrently: the export
// walk takes no write locks, and a version evicted mid-walk is replaced by
// the oldest retained one, which the post-svv WAL suffix replay corrects
// (see storage.Store.ExportAt). Returns the captured svv; the caller records
// it in the manifest together with per-origin replay offsets derived from
// it.
func (s *Site) WriteSnapshot(w *checkpoint.SnapshotWriter) (vclock.Vector, error) {
	svv := s.clock.Now()
	var werr error
	s.store.ExportAt(svv, nil, func(table string, key uint64, data []byte, stamp storage.Stamp) bool {
		werr = w.Write(checkpoint.Row{Table: table, Key: key, Data: data, Stamp: stamp})
		return werr == nil
	})
	return svv, werr
}

// RestoreSnapshot installs a (pre-verified) snapshot file's rows into this
// empty site and adopts its svv, positioning the site for suffix replay
// with Replay. Returns the number of rows installed.
func (s *Site) RestoreSnapshot(path string, svv vclock.Vector) (uint64, error) {
	// Hold every origin's apply mutex across install + clock advance: the
	// background appliers are already running, and letting one install a
	// log entry older than a just-restored row would stack a stale version
	// over the snapshot's newer head. Once the clock reads svv they skip
	// the covered prefix on their own.
	s.lockAppliers()
	defer s.unlockAppliers()
	// The appliers may already have installed part of the retained log
	// (with a truncated-prefix WAL their first dependency gate can pass
	// before Recover runs), so rows the clock shows as already-covered must
	// not be imported over the newer heads. The clock is frozen while every
	// applyMu is held, so one snapshot of it guards the whole import.
	applied := s.clock.Now()
	rows, err := checkpoint.ReadSnapshot(path, func(r checkpoint.Row) error {
		s.store.ImportRowIfNewer(r.Table, r.Key, r.Data, r.Stamp, applied)
		return nil
	})
	if err != nil {
		return rows, err
	}
	for k, v := range svv {
		s.clock.Advance(k, v)
	}
	if s.id < len(svv) && s.nextSeq.Load() < svv[s.id] {
		s.nextSeq.Store(svv[s.id])
	}
	return rows, nil
}
