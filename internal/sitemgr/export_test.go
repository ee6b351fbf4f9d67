package sitemgr

import "dynamast/internal/storage"

// Delete buffers a tombstone for ref. No product path deletes rows; the
// tests use it to keep the tombstone path through commit, apply and reads
// covered.
func (t *Txn) Delete(ref storage.RowRef) error {
	return t.bufferWrite(storage.Write{Ref: ref, Deleted: true})
}
