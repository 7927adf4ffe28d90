package ib

import (
	"container/list"

	"repro/internal/units"
)

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
	lru      *list.List // front = most recent; values are *regEntry
	byKey    map[uint64]*list.Element

	Hits, Misses, Evictions uint64
}

type regEntry struct {
	key  uint64
	size units.Bytes
}

// NewRegCache creates a registration cache with the given pinning capacity.
func NewRegCache(capacity units.Bytes) *RegCache {
	return &RegCache{
		capacity: capacity,
		lru:      list.New(),
		byKey:    map[uint64]*list.Element{},
	}
}

// Access registers the buffer (key, size) if needed and returns the host
// CPU time the operation costs under the given cost parameters. A hit costs
// only the lookup; a miss costs registration of every page plus
// deregistration of whatever had to be evicted.
func (c *RegCache) Access(key uint64, size units.Bytes, p *Params) units.Duration {
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*regEntry)
		if ent.size >= size {
			c.lru.MoveToFront(el)
			c.Hits++
			return p.RegLookup
		}
		// Grown buffer: treat as miss for the whole new size.
		c.used -= ent.size
		c.lru.Remove(el)
		delete(c.byKey, key)
	}
	c.Misses++
	cost := p.RegLookup + p.RegBase + c.pageCost(size, p.RegPerPage, p)
	// Evict LRU entries until the new buffer fits.
	for c.used+size > c.capacity && c.lru.Len() > 0 {
		el := c.lru.Back()
		ent := el.Value.(*regEntry)
		c.lru.Remove(el)
		delete(c.byKey, ent.key)
		c.used -= ent.size
		c.Evictions++
		cost += p.DeregBase + c.pageCost(ent.size, p.DeregPerPage, p)
	}
	c.used += size
	c.byKey[key] = c.lru.PushFront(&regEntry{key, size})
	return cost
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
func (c *RegCache) Len() int { return c.lru.Len() }
