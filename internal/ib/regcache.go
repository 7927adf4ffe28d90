package ib

import "repro/internal/units"

// RegCache models the pin-down (registration) cache an InfiniBand MPI keeps
// to avoid re-registering memory on every transfer. Buffers are identified
// by an opaque key (the simulated analogue of a virtual address range).
//
// The cache has a byte capacity; registering a missing buffer costs a base
// amount plus a per-page amount, and may evict least-recently-used entries
// (whose deregistration also costs time). This is the mechanism behind the
// paper's Figure 1(b) anomaly: at 4 MB messages, a ping-pong's send and
// receive buffers no longer fit together, so every iteration re-registers
// — "thrashing when registering memory".
type RegCache struct {
	capacity units.Bytes
	used     units.Bytes
	// lru is the sentinel of a circular list of the cached entries:
	// lru.next is the most recently used, lru.prev the least.
	lru   regEntry
	byKey map[uint64]*regEntry
	// free holds evicted entries, linked through next, for reuse.
	free *regEntry

	Hits, Misses, Evictions uint64
}

type regEntry struct {
	key        uint64
	size       units.Bytes
	prev, next *regEntry
}

// NewRegCache creates a registration cache with the given pinning capacity.
func NewRegCache(capacity units.Bytes) *RegCache {
	c := &RegCache{capacity: capacity, byKey: map[uint64]*regEntry{}}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Access registers the buffer (key, size) if needed and returns the host
// CPU time the operation costs under the given cost parameters. A hit costs
// only the lookup; a miss costs registration of every page plus
// deregistration of whatever had to be evicted.
func (c *RegCache) Access(key uint64, size units.Bytes, p *Params) units.Duration {
	if ent, ok := c.byKey[key]; ok {
		if ent.size >= size {
			ent.unlink()
			c.pushFront(ent)
			c.Hits++
			return p.RegLookup
		}
		// Grown buffer: treat as miss for the whole new size.
		c.used -= ent.size
		c.remove(ent)
	}
	c.Misses++
	cost := p.RegLookup + p.RegBase + c.pageCost(size, p.RegPerPage, p)
	// Evict LRU entries until the new buffer fits.
	for c.used+size > c.capacity && c.lru.prev != &c.lru {
		ent := c.lru.prev
		c.used -= ent.size
		c.Evictions++
		cost += p.DeregBase + c.pageCost(ent.size, p.DeregPerPage, p)
		c.remove(ent)
	}
	c.used += size
	ent := c.free
	if ent != nil {
		c.free = ent.next
	} else {
		ent = &regEntry{}
	}
	ent.key, ent.size = key, size
	c.pushFront(ent)
	c.byKey[key] = ent
	return cost
}

// remove drops ent from the cache and keeps it for reuse.
func (c *RegCache) remove(ent *regEntry) {
	ent.unlink()
	delete(c.byKey, ent.key)
	ent.prev, ent.next = nil, c.free
	c.free = ent
}

func (ent *regEntry) unlink() {
	ent.prev.next, ent.next.prev = ent.next, ent.prev
}

func (c *RegCache) pushFront(ent *regEntry) {
	ent.prev, ent.next = &c.lru, c.lru.next
	c.lru.next.prev = ent
	c.lru.next = ent
}

func (c *RegCache) pageCost(size units.Bytes, per units.Duration, p *Params) units.Duration {
	pages := int64((size + p.PageSize - 1) / p.PageSize)
	if pages == 0 {
		pages = 1
	}
	return units.Duration(pages) * per
}

// Used reports the currently pinned bytes.
func (c *RegCache) Used() units.Bytes { return c.used }

// Len reports the number of cached registrations.
func (c *RegCache) Len() int { return len(c.byKey) }
