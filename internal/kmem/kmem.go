// Package kmem models the Linux kernel's memory allocators and the
// cooperative memory-management framework of BetrFS v0.6 (§5 of the paper).
//
// The model does not manage real memory — Go's allocator does that — it
// charges simulated CPU time for the allocator work a kernel would do:
// slab allocations (kmalloc), large virtually-contiguous mappings
// (vmalloc, with per-page page-table population and TLB shootdowns on
// unmap), the expensive size lookup legacy vfree performs, and the
// realloc-by-copy pattern TokuDB's user-space heritage leans on.
//
// Two configurations exist:
//
//   - Legacy (BetrFS v0.4): a single cache of 32 × 128 KiB vmalloc
//     regions; frees pay the vmalloc size lookup; realloc grows buffers by
//     doubling with a full copy each step.
//   - Cooperative (v0.6, the MLC optimization): callers free with known
//     sizes, a buffer cache covers the common power-of-two classes, and
//     AllocUsable returns the full usable size of the underlying region so
//     bi-modal buffers jump straight to their final size.
package kmem

import (
	"sync"
	"time"

	"betrfs/internal/metrics"
	"betrfs/internal/sim"
)

// KmallocMax is the largest allocation served by the slab model; larger
// requests use the vmalloc path.
const KmallocMax = 32 << 10

// pageSize is the granularity of vmalloc mappings.
const pageSize = 4096

// Stats counts allocator activity and the simulated time it consumed.
type Stats struct {
	Kmallocs      int64
	Vmallocs      int64
	CacheHits     int64
	CacheMisses   int64
	Frees         int64
	Reallocs      int64
	ReallocCopies int64
	BytesCopied   int64
	Time          time.Duration
}

// Buf is an allocation handle. It carries the requested and usable sizes;
// no real backing memory is attached.
type Buf struct {
	// Size is the requested size in bytes.
	Size int
	// Usable is the capacity actually reserved, which the cooperative
	// interface exposes to callers (like malloc_usable_size).
	Usable int

	vmalloc bool
	class   int // cache size class, 0 if none
}

// Allocator models one machine's kernel allocator state. All methods are
// safe for concurrent use: the mutex serializes the buffer-cache state and
// statistics, so the background flusher and checkpoint pipeline can
// allocate serialization buffers while foreground operations run
// (DESIGN.md §9). Charges commute, so single-goroutine runs are unchanged.
type Allocator struct {
	env         *sim.Env
	cooperative bool
	mu          sync.Mutex
	// cache maps size class -> number of cached regions available.
	cache    map[int]int
	cacheCap map[int]int
	stats    Stats

	mKmalloc     *metrics.Counter
	mVmalloc     *metrics.Counter
	mCacheHit    *metrics.Counter
	mCacheMiss   *metrics.Counter
	mFree        *metrics.Counter
	mRealloc     *metrics.Counter
	mReallocCopy *metrics.Counter
	mBytesCopied *metrics.Counter
	mAllocHist   *metrics.Histogram
}

// legacy BetrFS kept a small cache of one common size only.
var legacyClasses = []int{128 << 10}

// cooperativeClasses covers the common powers of two the v0.6 allocator
// caches (§5: "expanded this cache of larger buffers to include
// additional, common powers of two").
var cooperativeClasses = []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20}

const cachePerClass = 32

// New returns an allocator. cooperative selects the v0.6 interfaces.
func New(env *sim.Env, cooperative bool) *Allocator {
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	a := &Allocator{
		env:          env,
		cooperative:  cooperative,
		cache:        make(map[int]int),
		cacheCap:     make(map[int]int),
		mKmalloc:     reg.Counter("kmem.alloc.kmalloc"),
		mVmalloc:     reg.Counter("kmem.alloc.vmalloc"),
		mCacheHit:    reg.Counter("kmem.buffercache.hit"),
		mCacheMiss:   reg.Counter("kmem.buffercache.miss"),
		mFree:        reg.Counter("kmem.free.count"),
		mRealloc:     reg.Counter("kmem.realloc.count"),
		mReallocCopy: reg.Counter("kmem.realloc.copy"),
		mBytesCopied: reg.Counter("kmem.bytes.copied"),
		mAllocHist:   reg.Histogram("kmem.alloc.bytes", "bytes"),
	}
	classes := legacyClasses
	if cooperative {
		classes = cooperativeClasses
	}
	for _, c := range classes {
		a.cacheCap[c] = cachePerClass
	}
	return a
}

// Cooperative reports whether the v0.6 interfaces are enabled.
func (a *Allocator) Cooperative() bool { return a.cooperative }

// Stats returns cumulative allocator statistics.
func (a *Allocator) Stats() *Stats { return &a.stats }

func (a *Allocator) charge(d time.Duration) {
	a.env.Charge(d)
	a.stats.Time += d
}

// classFor returns the smallest cached size class that fits size, or 0.
func (a *Allocator) classFor(size int) int {
	best := 0
	for c := range a.cacheCap {
		if c >= size && (best == 0 || c < best) {
			best = c
		}
	}
	return best
}

// Alloc allocates size bytes, choosing kmalloc or vmalloc as the kernel
// would. The returned Buf's Usable equals Size unless a cached region with
// extra capacity was used.
func (a *Allocator) Alloc(size int) *Buf {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alloc(size)
}

func (a *Allocator) alloc(size int) *Buf {
	a.mAllocHist.Observe(int64(size))
	if size <= KmallocMax {
		a.stats.Kmallocs++
		a.mKmalloc.Inc()
		a.charge(a.env.Costs.KmallocBase)
		return &Buf{Size: size, Usable: size}
	}
	if c := a.classFor(size); c != 0 && a.cache[c] > 0 {
		a.cache[c]--
		a.stats.CacheHits++
		a.mCacheHit.Inc()
		a.charge(a.env.Costs.KmallocBase) // cache pop is cheap
		return &Buf{Size: size, Usable: c, vmalloc: true, class: c}
	}
	a.stats.Vmallocs++
	a.stats.CacheMisses++
	a.mVmalloc.Inc()
	a.mCacheMiss.Inc()
	pages := (size + pageSize - 1) / pageSize
	a.charge(a.env.Costs.VmallocBase + time.Duration(pages)*a.env.Costs.VmallocPerPage)
	class := a.classFor(size)
	usable := size
	if class != 0 {
		usable = class
		pages = class / pageSize
	}
	return &Buf{Size: size, Usable: usable, vmalloc: true, class: class}
}

// AllocUsable is the cooperative allocation interface: it rounds the
// request up to a cached class and tells the caller the full usable size,
// so bi-modal buffers reach their final size in one step. Without the
// cooperative mode it behaves exactly like Alloc.
func (a *Allocator) AllocUsable(size int) *Buf {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocUsable(size)
}

func (a *Allocator) allocUsable(size int) *Buf {
	if !a.cooperative || size <= KmallocMax {
		return a.alloc(size)
	}
	if c := a.classFor(size); c != 0 {
		b := a.alloc(c)
		b.Size = size
		return b
	}
	// Beyond the largest cached class, negotiate head-room so the
	// bi-modal growth pattern (§5) does not degenerate into a copy per
	// append: reserve half again the request.
	b := a.alloc(size + size/2)
	b.Size = size
	return b
}

// Free releases b through the legacy interface: vmalloc regions pay the
// kernel's size lookup plus a TLB shootdown unless they can be parked in
// the buffer cache.
func (a *Allocator) Free(b *Buf) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free(b, false)
}

// FreeSized releases b with its size supplied by the caller (the
// cooperative interface), eliding the vmalloc size lookup. In legacy mode
// it degrades to Free, as v0.4's code could not pass sizes down.
func (a *Allocator) FreeSized(b *Buf) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free(b, a.cooperative)
}

func (a *Allocator) free(b *Buf, sized bool) {
	if b == nil {
		return
	}
	a.stats.Frees++
	a.mFree.Inc()
	if !b.vmalloc {
		a.charge(a.env.Costs.KmallocBase)
		return
	}
	if !sized {
		a.charge(a.env.Costs.VfreeSizeLookup)
	}
	if b.class != 0 && a.cache[b.class] < a.cacheCap[b.class] {
		a.cache[b.class]++
		a.charge(a.env.Costs.KmallocBase) // cache push
		return
	}
	// Real unmap: page-table teardown plus cross-CPU TLB shootdown.
	pages := (b.Usable + pageSize - 1) / pageSize
	a.charge(a.env.Costs.TLBShootdown + time.Duration(pages)*a.env.Costs.VmallocPerPage/2)
}

// Realloc grows (or shrinks) b to newSize and returns the new handle.
//
// In cooperative mode a request within the usable capacity is free — the
// caller was told the capacity up front. Otherwise the kernel pattern
// applies: allocate, copy the used bytes, free the old region.
func (a *Allocator) Realloc(b *Buf, newSize int, usedBytes int) *Buf {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.realloc(b, newSize, usedBytes)
}

func (a *Allocator) realloc(b *Buf, newSize int, usedBytes int) *Buf {
	a.stats.Reallocs++
	a.mRealloc.Inc()
	if b == nil {
		return a.alloc(newSize)
	}
	if newSize <= b.Usable {
		b.Size = newSize
		return b
	}
	a.stats.ReallocCopies++
	a.mReallocCopy.Inc()
	var nb *Buf
	if a.cooperative {
		nb = a.allocUsable(newSize)
	} else {
		nb = a.alloc(newSize)
	}
	if usedBytes > 0 {
		a.stats.BytesCopied += int64(usedBytes)
		a.mBytesCopied.Add(int64(usedBytes))
		a.env.Memcpy(usedBytes)
	}
	a.free(b, a.cooperative)
	return nb
}

// GrowDoubling models the user-space-heritage growth loop in TokuDB: grow
// by doubling until newSize fits. Legacy mode pays a copy per doubling
// step; cooperative mode collapses to a single Realloc because the
// negotiated capacity absorbs the growth.
func (a *Allocator) GrowDoubling(b *Buf, newSize int, usedBytes int) *Buf {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b == nil {
		return a.alloc(newSize)
	}
	if a.cooperative {
		return a.realloc(b, newSize, usedBytes)
	}
	for b.Usable < newSize {
		target := b.Usable * 2
		if target < 4096 {
			target = 4096
		}
		b = a.realloc(b, target, usedBytes)
		usedBytes = target / 2
	}
	b.Size = newSize
	return b
}
