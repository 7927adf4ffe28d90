package ib

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func regParams() *Params {
	p := DefaultParams()
	return &p
}

func TestRegCacheHitMiss(t *testing.T) {
	p := regParams()
	c := NewRegCache(1 * units.MiB)
	miss := c.Access(1, 64*units.KiB, p)
	hit := c.Access(1, 64*units.KiB, p)
	if miss <= hit {
		t.Fatalf("miss %v should exceed hit %v", miss, hit)
	}
	if hit != p.RegLookup {
		t.Fatalf("hit cost %v, want lookup only %v", hit, p.RegLookup)
	}
	if c.Hits != 1 || c.Misses != 1 || c.Used() != 64*units.KiB {
		t.Fatalf("stats hits=%d misses=%d used=%v", c.Hits, c.Misses, c.Used())
	}
}

func TestRegCacheMissCostScalesWithPages(t *testing.T) {
	p := regParams()
	c := NewRegCache(100 * units.MiB)
	small := c.Access(1, 4*units.KiB, p)   // 1 page
	large := c.Access(2, 400*units.KiB, p) // 100 pages
	wantDelta := 99 * p.RegPerPage
	if large-small != wantDelta {
		t.Fatalf("cost delta %v, want %v", large-small, wantDelta)
	}
}

func TestRegCacheEviction(t *testing.T) {
	p := regParams()
	c := NewRegCache(100 * units.KiB)
	c.Access(1, 60*units.KiB, p)
	c.Access(2, 30*units.KiB, p)
	// Third buffer forces eviction of key 1 (LRU).
	cost := c.Access(3, 60*units.KiB, p)
	if c.Evictions == 0 {
		t.Fatal("no eviction")
	}
	if cost <= p.RegLookup+p.RegBase+15*p.RegPerPage {
		t.Fatalf("eviction cost not charged: %v", cost)
	}
	// Key 2 survived (was more recent than 1).
	if got := c.Access(2, 30*units.KiB, p); got != p.RegLookup {
		t.Fatalf("key 2 should have survived, cost %v", got)
	}
	// Key 1 was evicted.
	before := c.Misses
	c.Access(1, 60*units.KiB, p)
	if c.Misses != before+1 {
		t.Fatal("key 1 should have been evicted")
	}
}

// The Figure 1(b) mechanism: two alternating buffers that together exceed
// capacity thrash — every access is a miss.
func TestRegCacheThrash(t *testing.T) {
	p := regParams()
	c := NewRegCache(7 * units.MiB)
	for i := 0; i < 10; i++ {
		c.Access(1, 4*units.MiB, p)
		c.Access(2, 4*units.MiB, p)
	}
	if c.Hits != 0 || c.Misses != 20 {
		t.Fatalf("thrash expected: hits=%d misses=%d", c.Hits, c.Misses)
	}
	// Two 2 MiB buffers fit: all hits after warmup.
	c2 := NewRegCache(7 * units.MiB)
	for i := 0; i < 10; i++ {
		c2.Access(1, 2*units.MiB, p)
		c2.Access(2, 2*units.MiB, p)
	}
	if c2.Misses != 2 || c2.Hits != 18 {
		t.Fatalf("no-thrash expected: hits=%d misses=%d", c2.Hits, c2.Misses)
	}
}

// TestRegCacheThrashAllocs: in Figure 1(b)'s thrash, two 4 MiB buffers
// alternating in a 6 MiB cache, every access misses and evicts, and an
// evicted entry is reused for the next registration, so an access
// allocates nothing.
func TestRegCacheThrashAllocs(t *testing.T) {
	p := regParams()
	c := NewRegCache(6 * units.MiB)
	key := uint64(1)
	access := func() {
		c.Access(key, 4*units.MiB, p)
		key = 3 - key
	}
	access()
	access()
	if allocs := testing.AllocsPerRun(100, access); allocs != 0 {
		t.Fatalf("%v allocations per access, want 0", allocs)
	}
	if c.Hits != 0 || c.Evictions != c.Misses-1 || c.Len() != 1 {
		t.Fatalf("hits=%d misses=%d evictions=%d len=%d, want every access to miss and evict",
			c.Hits, c.Misses, c.Evictions, c.Len())
	}
}

func TestRegCacheGrownBufferReregisters(t *testing.T) {
	p := regParams()
	c := NewRegCache(10 * units.MiB)
	c.Access(1, 4*units.KiB, p)
	cost := c.Access(1, 8*units.KiB, p)
	if cost <= p.RegLookup {
		t.Fatal("grown buffer should re-register")
	}
	// Smaller access within the registered range is a hit.
	if got := c.Access(1, 4*units.KiB, p); got != p.RegLookup {
		t.Fatalf("sub-range access cost %v", got)
	}
}

// Property: used bytes never exceed capacity (when no single buffer does),
// and Len tracks distinct keys.
func TestRegCacheCapacityProperty(t *testing.T) {
	p := regParams()
	f := func(keys []uint8) bool {
		capBytes := units.Bytes(256 * units.KiB)
		c := NewRegCache(capBytes)
		for _, k := range keys {
			size := units.Bytes(int(k)%60+1) * units.KiB
			c.Access(uint64(k), size, p)
			if c.Used() > capBytes {
				return false
			}
			if c.Len() > 256 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
