package vfs

import "sort"

// Page-cache accounting and write-back: dirty pages age out after
// DirtyExpire or are flushed when writers cross the dirty watermark
// (balance_dirty_pages); clean pages are evicted LRU under memory
// pressure. Dirty inodes are written back alongside their pages, which is
// when BetrFS's conditional logging finally inserts deferred inode-create
// messages into the tree (§3.3).

// newPage allocates a page-cache page for (ino, blk), replacing any
// existing entry.
func (m *Mount) newPage(ino *inode, blk int64) *Page {
	if old, ok := ino.pages[blk]; ok {
		m.forgetPage(old)
	}
	pg := &Page{Data: make([]byte, PageSize), ino: ino, blk: blk}
	ino.pages[blk] = pg
	return pg
}

// cowIfPinned returns a writable page for (ino, blk): if the FS holds a
// reference to the current page (page sharing, §6), a fresh page replaces
// it in the cache — copying the old contents unless the write fully
// overwrites the block — and the pinned page remains immutable, owned by
// the FS.
func (m *Mount) cowIfPinned(ino *inode, blk int64, pg *Page, fullOverwrite bool) *Page {
	if !pg.Pinned() {
		m.touchPage(pg)
		return pg
	}
	m.stats.CowCopies++
	m.m.cowCopy.Inc()
	m.forgetPage(pg)
	npg := &Page{Data: make([]byte, PageSize), ino: ino, blk: blk}
	if !fullOverwrite {
		m.env.Memcpy(PageSize)
		copy(npg.Data, pg.Data)
	}
	m.env.Charge(m.env.Costs.KmallocBase)
	ino.pages[blk] = npg
	return npg
}

// dirtyPage moves a page onto the dirty list.
func (m *Mount) dirtyPage(pg *Page) {
	if pg.Dirty {
		return
	}
	if el, ok := m.lruEl[pg]; ok {
		m.lru.Remove(el)
		delete(m.lruEl, pg)
		m.cleanBytes -= PageSize
	}
	pg.Dirty = true
	pg.dirtiedAt = m.env.Now()
	m.dirtyEl[pg] = m.dirty.PushBack(pg)
	m.dirtyBytes += PageSize
}

// trackClean registers a clean page for LRU eviction.
func (m *Mount) trackClean(pg *Page) {
	if pg.Dirty {
		return
	}
	if _, ok := m.lruEl[pg]; ok {
		return
	}
	m.lruEl[pg] = m.lru.PushFront(pg)
	m.cleanBytes += PageSize
	m.evictClean()
}

// touchPage refreshes LRU position.
func (m *Mount) touchPage(pg *Page) {
	if el, ok := m.lruEl[pg]; ok {
		m.lru.MoveToFront(el)
	}
}

// forgetPage removes a page from all accounting (deleted or replaced).
func (m *Mount) forgetPage(pg *Page) {
	if el, ok := m.lruEl[pg]; ok {
		m.lru.Remove(el)
		delete(m.lruEl, pg)
		m.cleanBytes -= PageSize
	}
	if el, ok := m.dirtyEl[pg]; ok {
		m.dirty.Remove(el)
		delete(m.dirtyEl, pg)
		m.dirtyBytes -= PageSize
		pg.Dirty = false
	}
}

// dropInodePages discards all of an inode's pages (file deleted).
func (m *Mount) dropInodePages(ino *inode) {
	for blk, pg := range ino.pages {
		m.forgetPage(pg)
		delete(ino.pages, blk)
	}
}

// maxWritebackRun caps one coalesced write-back I/O (1 MiB).
const maxWritebackRun = 256

// writebackPage sends the maximal contiguous dirty run around one page to
// the FS in a single call (bio merging); the pages stay cached clean
// (possibly pinned by the FS under page sharing).
func (m *Mount) writebackPage(pg *Page, durable bool) {
	if !pg.Dirty {
		return
	}
	ino := pg.ino
	start := pg.blk
	for start > 0 {
		prev, ok := ino.pages[start-1]
		if !ok || !prev.Dirty || pg.blk-start >= maxWritebackRun/2 {
			break
		}
		start--
	}
	var run []*Page
	for b := start; len(run) < maxWritebackRun; b++ {
		p, ok := ino.pages[b]
		if !ok || !p.Dirty {
			break
		}
		run = append(run, p)
	}
	m.writebackRun(ino, start, run, durable)
}

// writebackRun writes one contiguous run of dirty pages. On failure the
// pages are still marked clean — as the kernel does after a failed
// write-back — so the dirty lists always drain and the balance/maintain
// loops terminate; the error is latched for the next Fsync/Sync (and, for
// EIO, degrades the mount read-only). The data stays readable from cache.
func (m *Mount) writebackRun(ino *inode, blk int64, run []*Page, durable bool) {
	for _, p := range run {
		m.forgetPage(p)
	}
	err := m.fs.WriteBlocks(ino.h, blk, run, durable)
	m.stats.PagesWritten += int64(len(run))
	m.m.pageWrite.Add(int64(len(run)))
	for _, p := range run {
		m.trackClean(p)
	}
	if err != nil {
		m.writebackError(err)
	}
}

// writebackInodePages flushes all dirty pages of one inode in block order,
// coalescing contiguous runs into single FS calls.
func (m *Mount) writebackInodePages(ino *inode, durable bool) {
	var blks []int64
	for blk, pg := range ino.pages {
		if pg.Dirty {
			blks = append(blks, blk)
		}
	}
	sortInt64s(blks)
	i := 0
	for i < len(blks) {
		j := i + 1
		for j < len(blks) && blks[j] == blks[j-1]+1 && j-i < maxWritebackRun {
			j++
		}
		run := make([]*Page, 0, j-i)
		for _, b := range blks[i:j] {
			run = append(run, ino.pages[b])
		}
		m.writebackRun(ino, blks[i], run, durable)
		i = j
	}
}

// writebackInodeAttr persists dirty inode metadata. Failures latch like
// page write-back failures, and the inode is still marked clean so the
// dirty-inode set drains (the attribute stays correct in the icache).
func (m *Mount) writebackInodeAttr(ino *inode) {
	if !ino.dirty {
		return
	}
	if err := m.fs.WriteAttr(ino.h, ino.attr); err != nil {
		m.writebackError(err)
	}
	ino.dirty = false
	delete(m.dirtyInodes, ino)
}

// balanceDirty throttles writers: above the dirty watermark, the oldest
// dirty pages are written back until the count drops to half the
// watermark.
func (m *Mount) balanceDirty() {
	high := int64(float64(m.cfg.CacheBytes) * m.cfg.DirtyRatio)
	if m.dirtyBytes <= high {
		return
	}
	low := high / 2
	for m.dirtyBytes > low {
		el := m.dirty.Front()
		if el == nil {
			break
		}
		m.writebackPage(el.Value.(*Page), false)
	}
}

// evictClean drops cold clean pages when the cache exceeds its budget.
func (m *Mount) evictClean() {
	for m.cleanBytes+m.dirtyBytes > m.cfg.CacheBytes {
		el := m.lru.Back()
		if el == nil {
			return
		}
		pg := el.Value.(*Page)
		m.forgetPage(pg)
		delete(pg.ino.pages, pg.blk)
		m.stats.PageEvictions++
		m.m.pageEvict.Inc()
	}
}

// maintain runs periodic background work from operation paths: expired
// dirty pages and inodes are written back and the FS gets a maintenance
// tick (checkpoint timers, segment cleaning, txg commits).
func (m *Mount) maintain() {
	now := m.env.Now()
	if now-m.lastMaintain < m.cfg.MaintainInterval {
		return
	}
	m.lastMaintain = now
	// Expired dirty pages (dirty_expire_centisecs): the dirty list is in
	// dirtying order, so flush from the front while pages are past due.
	for el := m.dirty.Front(); el != nil; el = m.dirty.Front() {
		pg := el.Value.(*Page)
		if now-pg.dirtiedAt < m.cfg.DirtyExpire {
			break
		}
		m.writebackPage(pg, false)
	}
	for _, ino := range m.sortedDirtyInodes() {
		if now-m.dirtyInodes[ino] >= m.cfg.DirtyExpire {
			m.writebackInodePages(ino, false)
			m.writebackInodeAttr(ino)
		}
	}
	m.fs.Maintain()
}

// sortedDirtyInodes snapshots the dirty-inode set in path order. The map
// is keyed by pointer, so ranging it directly would write inodes back in
// a different order every run — and write-back order is charge-visible
// (it decides FS write ordering and therefore simulated seek costs).
func (m *Mount) sortedDirtyInodes() []*inode {
	out := make([]*inode, 0, len(m.dirtyInodes))
	for ino := range m.dirtyInodes {
		out = append(out, ino)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// writebackAll flushes every dirty page and inode.
func (m *Mount) writebackAll(durable bool) {
	for m.dirty.Front() != nil {
		m.writebackPage(m.dirty.Front().Value.(*Page), durable)
	}
	for _, ino := range m.sortedDirtyInodes() {
		m.writebackInodeAttr(ino)
	}
}

func sortInt64s(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
