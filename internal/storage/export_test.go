package storage

import "dynamast/internal/vclock"

// ScanKeys calls fn for each visible row in [lo, hi) in key order; fn
// returning false stops the scan early. fn runs outside every table lock, so
// it may use the table. The returned evicted flag is ScanChecked's, over the
// rows visited.
func (t *Table) ScanKeys(lo, hi uint64, snap vclock.Vector, fn func(key uint64, data []byte) bool) (evicted bool) {
	if lo >= hi {
		return false
	}
	for _, e := range t.refs(lo, hi-1) {
		data, ok, ev := e.rec.ReadChecked(snap)
		evicted = evicted || ev
		if ok && !fn(e.key, data) {
			break
		}
	}
	return evicted
}

// Keys returns the number of records (of any visibility) in the table.
func (t *Table) Keys() int {
	t.idx.mu.RLock()
	defer t.idx.mu.RUnlock()
	n := 0
	for _, run := range t.idx.runs {
		n += len(run)
	}
	return n
}

// GetLatest reads the newest committed version of key.
func (t *Table) GetLatest(key uint64) ([]byte, Stamp, bool) {
	r := t.Record(key, false)
	if r == nil {
		return nil, Stamp{}, false
	}
	return r.ReadLatest()
}
