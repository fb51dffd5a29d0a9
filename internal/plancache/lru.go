package plancache

import "container/list"

// lru is a bounded key→value map that evicts its least recently used
// entries. It is unsynchronized: its owner's mutex guards it.
type lru[V any] struct {
	capacity int
	ll       *list.List // front = most recently used; values are *lruEntry[V]
	entries  map[Key]*list.Element
}

type lruEntry[V any] struct {
	key Key
	val V
}

// newLRU returns an LRU bounded to capacity entries (capacity < 1 is
// raised to 1).
func newLRU[V any](capacity int) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element),
	}
}

// get returns the value stored under k, refreshing its recency.
func (c *lru[V]) get(k Key) (V, bool) {
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// peek returns the value stored under k without touching its recency.
func (c *lru[V]) peek(k Key) (V, bool) {
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[V]).val, true
}

// put inserts (or replaces) k → v as the most recent entry and returns how
// many least recently used entries it evicted to stay within capacity.
func (c *lru[V]) put(k Key, v V) int {
	if el, ok := c.entries[k]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.ll.MoveToFront(el)
		return 0
	}
	c.entries[k] = c.ll.PushFront(&lruEntry[V]{key: k, val: v})
	evicted := 0
	for c.ll.Len() > c.capacity {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.entries, el.Value.(*lruEntry[V]).key)
		evicted++
	}
	return evicted
}
