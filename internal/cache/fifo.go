package cache

// fifoCache evicts in insertion order regardless of hits.
type fifoCache struct {
	capacity int
	entries  map[int]*fifoEntry
	queue    []*fifoEntry // insertion order; a slot is live while entries maps its chunk to it
	qhead    int          // index of the oldest slot in queue
	stats    Stats
}

type fifoEntry struct {
	chunk int
	dirty bool
}

func newFIFO(capacity int) *fifoCache {
	return &fifoCache{capacity: capacity, entries: make(map[int]*fifoEntry, capacity)}
}

func (c *fifoCache) Lookup(chunk int, dirty bool) bool {
	c.stats.Accesses++
	e, ok := c.entries[chunk]
	if !ok {
		return false
	}
	c.stats.Hits++
	e.dirty = e.dirty || dirty
	return true
}

func (c *fifoCache) Insert(chunk int, dirty bool) (Eviction, bool) {
	if e, ok := c.entries[chunk]; ok {
		e.dirty = e.dirty || dirty
		return Eviction{}, false
	}
	var ev Eviction
	evicted := false
	if len(c.entries) >= c.capacity {
		// Skip slots whose entry was removed out of band (Remove), even if
		// its chunk was inserted again since: that chunk's live slot is a
		// later one.
		for {
			victim := c.queue[c.qhead]
			c.qhead++
			if c.entries[victim.chunk] != victim {
				continue
			}
			delete(c.entries, victim.chunk)
			ev = Eviction{Chunk: victim.chunk, Dirty: victim.dirty}
			evicted = true
			break
		}
	}
	e := &fifoEntry{chunk: chunk, dirty: dirty}
	c.entries[chunk] = e
	c.queue = append(c.queue, e)
	// Compact the queue occasionally so it does not grow unboundedly.
	if c.qhead > len(c.queue)/2 && c.qhead > 1024 {
		c.queue = append([]*fifoEntry(nil), c.queue[c.qhead:]...)
		c.qhead = 0
	}
	return ev, evicted
}

func (c *fifoCache) Contains(chunk int) bool {
	_, ok := c.entries[chunk]
	return ok
}

// Remove drops a resident chunk, returning its dirty state. The queue
// slot is skipped lazily at eviction time.
func (c *fifoCache) Remove(chunk int) bool {
	e, ok := c.entries[chunk]
	if !ok {
		return false
	}
	delete(c.entries, chunk)
	return e.dirty
}

func (c *fifoCache) Len() int      { return len(c.entries) }
func (c *fifoCache) Capacity() int { return c.capacity }
func (c *fifoCache) Stats() Stats  { return c.stats }
func (c *fifoCache) ResetStats()   { c.stats = Stats{} }
func (c *fifoCache) Name() string  { return "fifo" }
