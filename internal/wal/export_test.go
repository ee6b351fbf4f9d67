package wal

// Get returns the entry at offset, if published and still retained.
func (l *Log) Get(offset uint64) (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if offset >= l.visible || offset < l.base {
		return Entry{}, false
	}
	return l.entries[offset-l.base], true
}

// Next blocks until the next entry is available and returns it; ok is false
// if the log was closed and fully drained.
func (c *Cursor) Next() (Entry, bool) {
	l := c.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if c.next < l.base {
		c.next = l.base
	}
	for c.next >= l.visible {
		if l.closed {
			return Entry{}, false
		}
		l.cond.Wait()
	}
	e := l.entries[c.next-l.base]
	c.next++
	return e, true
}
