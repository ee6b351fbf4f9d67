// Package pindex is a uint64 → *T hash index whose lookups take no lock.
//
// Map is open addressing with linear probing over 16-byte slots, with a
// Fibonacci hash. Get does one atomic load of the slot array and then one
// atomic pointer load per slot it probes. Writers (Put, Delete and the growth
// inside Put) must be serialised by a lock the caller already holds.
//
// Publication rules, which make a lock-free Get safe:
//   - A slot's key is written before its pointer is published, and it is
//     never rewritten in that array. A reader that loads a non-nil pointer
//     therefore reads the key that pointer was stored under.
//   - Delete stores the array's tombstone in the slot and keeps the key, so
//     probe chains stay unbroken. A later Put of the same key reuses the slot.
//   - Growth copies the live entries into a fresh array, dropping tombstones,
//     and publishes it with one atomic store once it is filled.
//
// A reader still on an array that growth replaced may see a key deleted
// after the replacement: Get returns the key's old pointer or nil, never
// another key's pointer. Callers that must not see a removed entry exclude
// lookups of that key around its removal.
package pindex

import (
	"math/bits"
	"sync/atomic"
)

// minSlots is the size of a map's first array.
const minSlots = 16

// Map is a uint64 → *T index. The zero Map is empty and ready to use.
type Map[T any] struct {
	tab atomic.Pointer[table[T]]
	n   atomic.Int64 // live entries
}

type slot[T any] struct {
	key uint64
	p   atomic.Pointer[T]
}

// table is one slot array. Only writers read used. Every array of a map
// shares one tomb, fixed before the array is published.
type table[T any] struct {
	slots []slot[T]
	shift uint8 // 64 - log2(len(slots))
	used  int   // slots holding a key, live or tombstone
	tomb  *T    // stands in for a deleted entry's pointer
}

// newTable returns an empty array of size slots, a power of two.
func newTable[T any](size int, tomb *T) *table[T] {
	shift := uint8(64 - bits.TrailingZeros(uint(size)))
	return &table[T]{slots: make([]slot[T], size), shift: shift, tomb: tomb}
}

// home is key's first probe: a Fibonacci multiply-shift, which spreads dense
// and strided keys evenly.
func (t *table[T]) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding key, or the empty slot that ends its probe
// chain. A table always has an empty slot, so the probe ends.
func (t *table[T]) find(key uint64) (s *slot[T], p *T) {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s = &t.slots[i]
		if p = s.p.Load(); p == nil || s.key == key {
			return s, p
		}
	}
}

// Get returns key's pointer, or nil if key is absent. It takes no lock.
func (m *Map[T]) Get(key uint64) *T {
	t := m.tab.Load()
	if t == nil {
		return nil
	}
	if _, p := t.find(key); p != t.tomb {
		return p
	}
	return nil
}

// Put maps key to p, which must not be nil. The caller serialises writers.
func (m *Map[T]) Put(key uint64, p *T) {
	t := m.tab.Load()
	if t == nil {
		t = newTable(minSlots, new(T))
		m.tab.Store(t)
	}
	s, old := t.find(key)
	if old != nil {
		if old == t.tomb {
			m.n.Add(1)
		}
		s.p.Store(p)
		return
	}
	if 8*(t.used+1) > 7*len(t.slots) {
		t = m.grow(t)
		s, _ = t.find(key)
	}
	s.key = key
	s.p.Store(p)
	t.used++
	m.n.Add(1)
}

// grow replaces t with the smallest array of at least 16 slots that is at
// least twice the live count, the key being put included, and copies the
// live entries into it: the next size up when more than half the slots are
// live, the same size or smaller when most are tombstones. So a new array
// has 16 slots or fewer than 4 per live entry, and takes at least 3/8 of its
// size in inserts before the next rebuild.
func (m *Map[T]) grow(t *table[T]) *table[T] {
	live := int(m.n.Load()) + 1
	size := minSlots
	for size < 2*live {
		size *= 2
	}
	nt := newTable(size, t.tomb)
	for i := range t.slots {
		s := &t.slots[i]
		if p := s.p.Load(); p != nil && p != t.tomb {
			d, _ := nt.find(s.key)
			d.key = s.key
			d.p.Store(p)
			nt.used++
		}
	}
	m.tab.Store(nt)
	return nt
}

// Delete removes key, if present. The caller serialises writers.
func (m *Map[T]) Delete(key uint64) {
	t := m.tab.Load()
	if t == nil {
		return
	}
	if s, p := t.find(key); p != nil && p != t.tomb {
		s.p.Store(t.tomb)
		m.n.Add(-1)
	}
}

// Len returns the number of live entries. It takes no lock.
func (m *Map[T]) Len() int { return int(m.n.Load()) }

// Slots returns the length of the current slot array: the index's footprint
// is 16 bytes a slot.
func (m *Map[T]) Slots() int {
	if t := m.tab.Load(); t != nil {
		return len(t.slots)
	}
	return 0
}

// Range calls f for each live entry of the current array, in slot order. It
// takes no lock: entries put or deleted while it runs may or may not be
// visited.
func (m *Map[T]) Range(f func(key uint64, p *T)) {
	t := m.tab.Load()
	if t == nil {
		return
	}
	for i := range t.slots {
		s := &t.slots[i]
		if p := s.p.Load(); p != nil && p != t.tomb {
			f(s.key, p)
		}
	}
}
