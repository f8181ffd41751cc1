package main

import (
	"betrfs/internal/betree"
	"betrfs/internal/blockdev"
	"betrfs/internal/blockstore"
	"betrfs/internal/stor"
	"betrfs/internal/vfs"
)

// The wrappers below time calls into a layer from outside, at the
// layer's own interface. They charge no simulated time and change no
// argument or result, so a traced stack computes exactly what the
// untraced one does (perfbench_test.go checks this bit for bit).

// fsSeam wraps the vfs.FS a mount drives: the betrfs layer.
type fsSeam struct {
	s  *seam
	fs vfs.FS
}

func wrapFS(s *seam, fs vfs.FS) vfs.FS {
	if s == nil {
		return fs
	}
	return &fsSeam{s: s, fs: fs}
}

func (w *fsSeam) Root() vfs.Handle { return w.fs.Root() }

func (w *fsSeam) Lookup(parent vfs.Handle, name string) (vfs.Handle, vfs.Attr, error) {
	sp := w.s.begin("lookup")
	h, a, err := w.fs.Lookup(parent, name)
	w.s.end(sp, 0)
	return h, a, err
}

func (w *fsSeam) Create(parent vfs.Handle, name string, dir bool) (vfs.Handle, vfs.Attr, error) {
	sp := w.s.begin("create")
	h, a, err := w.fs.Create(parent, name, dir)
	w.s.end(sp, 0)
	return h, a, err
}

func (w *fsSeam) Remove(parent vfs.Handle, name string, h vfs.Handle, dir bool) error {
	sp := w.s.begin("remove")
	err := w.fs.Remove(parent, name, h, dir)
	w.s.end(sp, 0)
	return err
}

func (w *fsSeam) Rename(oldParent vfs.Handle, oldName string, h vfs.Handle, newParent vfs.Handle, newName string) (vfs.Handle, error) {
	sp := w.s.begin("rename")
	nh, err := w.fs.Rename(oldParent, oldName, h, newParent, newName)
	w.s.end(sp, 0)
	return nh, err
}

func (w *fsSeam) ReadDir(h vfs.Handle) ([]vfs.DirEntry, error) {
	sp := w.s.begin("readdir")
	ents, err := w.fs.ReadDir(h)
	w.s.end(sp, 0)
	return ents, err
}

func (w *fsSeam) WriteAttr(h vfs.Handle, a vfs.Attr) error {
	sp := w.s.begin("write_attr")
	err := w.fs.WriteAttr(h, a)
	w.s.end(sp, 0)
	return err
}

func (w *fsSeam) ReadBlocks(h vfs.Handle, blk int64, pages []*vfs.Page, seq bool) error {
	sp := w.s.begin("read_blocks")
	err := w.fs.ReadBlocks(h, blk, pages, seq)
	w.s.end(sp, len(pages)*vfs.PageSize)
	return err
}

func (w *fsSeam) WriteBlocks(h vfs.Handle, blk int64, pgs []*vfs.Page, durable bool) error {
	sp := w.s.begin("write_blocks")
	err := w.fs.WriteBlocks(h, blk, pgs, durable)
	w.s.end(sp, len(pgs)*vfs.PageSize)
	return err
}

func (w *fsSeam) WritePartial(h vfs.Handle, blk int64, off int, data []byte, durable bool) error {
	sp := w.s.begin("write_partial")
	err := w.fs.WritePartial(h, blk, off, data, durable)
	w.s.end(sp, len(data))
	return err
}

func (w *fsSeam) SupportsBlindWrites() bool { return w.fs.SupportsBlindWrites() }

func (w *fsSeam) TruncateBlocks(h vfs.Handle, fromBlk int64) error {
	sp := w.s.begin("truncate")
	err := w.fs.TruncateBlocks(h, fromBlk)
	w.s.end(sp, 0)
	return err
}

func (w *fsSeam) Fsync(h vfs.Handle) error {
	sp := w.s.begin("fsync")
	err := w.fs.Fsync(h)
	w.s.end(sp, 0)
	return err
}

func (w *fsSeam) Sync() error {
	sp := w.s.begin("sync")
	err := w.fs.Sync()
	w.s.end(sp, 0)
	return err
}

func (w *fsSeam) Maintain() {
	sp := w.s.begin("maintain")
	w.fs.Maintain()
	w.s.end(sp, 0)
}

func (w *fsSeam) DropCaches() {
	sp := w.s.begin("drop_caches")
	w.fs.DropCaches()
	w.s.end(sp, 0)
}

// Scrub forwards the optional vfs.Scrubber, answering for a file system
// without one exactly as vfs.Mount.Scrub would.
func (w *fsSeam) Scrub(repair bool) (vfs.ScrubStats, error) {
	sc, ok := w.fs.(vfs.Scrubber)
	if !ok {
		return vfs.ScrubStats{}, vfs.ErrNotSupported
	}
	sp := w.s.begin("scrub")
	st, err := sc.Scrub(repair)
	w.s.end(sp, 0)
	return st, err
}

// backendSeam wraps the Bε-tree's storage backend (the SFL): each named
// region's stor.File is timed as I/O of the layer that owns the region,
// the redo log for "log" and the Bε-tree for the rest.
type backendSeam struct {
	inner betree.Backend
	files map[string]stor.File
}

func wrapBackend(rec *recorder, s *seam, b betree.Backend) betree.Backend {
	if s == nil {
		return b
	}
	w := &backendSeam{inner: b, files: make(map[string]stor.File)}
	for _, name := range []string{"super", "log", "meta", "data"} {
		owner := "betree"
		if name == "log" {
			owner = "wal"
		}
		w.files[name] = &fileSeam{s: rec.seam(s.env, owner, s.self), f: b.File(name)}
	}
	return w
}

func (w *backendSeam) File(name string) stor.File {
	if f, ok := w.files[name]; ok {
		return f
	}
	return w.inner.File(name)
}

type fileSeam struct {
	s *seam
	f stor.File
}

func (w *fileSeam) ReadAt(p []byte, off int64) error {
	sp := w.s.begin("read")
	err := w.f.ReadAt(p, off)
	w.s.end(sp, len(p))
	return err
}

func (w *fileSeam) WriteAt(p []byte, off int64) error {
	sp := w.s.begin("write")
	err := w.f.WriteAt(p, off)
	w.s.end(sp, len(p))
	return err
}

// SubmitRead times the submission and, separately, the wait: the
// simulated clock advances in the wait, after the submitter may have
// done other work.
func (w *fileSeam) SubmitRead(p []byte, off int64) stor.Wait {
	sp := w.s.begin("submit_read")
	wait := w.f.SubmitRead(p, off)
	w.s.end(sp, len(p))
	return w.timedWait("wait_read", wait)
}

func (w *fileSeam) SubmitWrite(p []byte, off int64) stor.Wait {
	sp := w.s.begin("submit_write")
	wait := w.f.SubmitWrite(p, off)
	w.s.end(sp, len(p))
	return w.timedWait("wait_write", wait)
}

func (w *fileSeam) timedWait(op string, wait stor.Wait) stor.Wait {
	return func() error {
		sp := w.s.begin(op)
		err := wait()
		w.s.end(sp, 0)
		return err
	}
}

func (w *fileSeam) Flush() error {
	sp := w.s.begin("flush")
	err := w.f.Flush()
	w.s.end(sp, 0)
	return err
}

func (w *fileSeam) Discard(off, length int64) error {
	sp := w.s.begin("discard")
	err := w.f.Discard(off, length)
	w.s.end(sp, 0)
	return err
}

func (w *fileSeam) Capacity() int64 { return w.f.Capacity() }

// devSeam wraps a blockdev.Device.
type devSeam struct {
	s   *seam
	dev blockdev.Device
}

func wrapDevice(s *seam, dev blockdev.Device) blockdev.Device {
	if s == nil {
		return dev
	}
	return &devSeam{s: s, dev: dev}
}

func (w *devSeam) ReadAt(p []byte, off int64) error {
	sp := w.s.begin("read")
	err := w.dev.ReadAt(p, off)
	w.s.end(sp, len(p))
	return err
}

func (w *devSeam) WriteAt(p []byte, off int64) error {
	sp := w.s.begin("write")
	err := w.dev.WriteAt(p, off)
	w.s.end(sp, len(p))
	return err
}

func (w *devSeam) SubmitRead(p []byte, off int64) blockdev.Completion {
	sp := w.s.begin("submit_read")
	c := w.dev.SubmitRead(p, off)
	w.s.end(sp, len(p))
	return c
}

func (w *devSeam) SubmitWrite(p []byte, off int64) blockdev.Completion {
	sp := w.s.begin("submit_write")
	c := w.dev.SubmitWrite(p, off)
	w.s.end(sp, len(p))
	return c
}

func (w *devSeam) Wait(c blockdev.Completion) error {
	sp := w.s.begin("wait")
	err := w.dev.Wait(c)
	w.s.end(sp, 0)
	return err
}

func (w *devSeam) Flush() error {
	sp := w.s.begin("flush")
	err := w.dev.Flush()
	w.s.end(sp, 0)
	return err
}

func (w *devSeam) Discard(off, length int64) error {
	sp := w.s.begin("discard")
	err := w.dev.Discard(off, length)
	w.s.end(sp, 0)
	return err
}

func (w *devSeam) Size() int64            { return w.dev.Size() }
func (w *devSeam) Stats() *blockdev.Stats { return w.dev.Stats() }

// storeSeam wraps a blockstore.Store. Only non-local stores are wrapped:
// blockstore.AsDevice unwraps a local store to its device, and a wrapper
// would hide it and silently switch the stack to the synchronous adapter.
type storeSeam struct {
	s  *seam
	st blockstore.Store
}

func wrapStore(s *seam, st blockstore.Store) blockstore.Store {
	if s == nil {
		return st
	}
	return &storeSeam{s: s, st: st}
}

func (w *storeSeam) ReadAt(p []byte, off int64) error {
	sp := w.s.begin("read")
	err := w.st.ReadAt(p, off)
	w.s.end(sp, len(p))
	return err
}

func (w *storeSeam) WriteAt(p []byte, off int64) error {
	sp := w.s.begin("write")
	err := w.st.WriteAt(p, off)
	w.s.end(sp, len(p))
	return err
}

func (w *storeSeam) Flush() error {
	sp := w.s.begin("flush")
	err := w.st.Flush()
	w.s.end(sp, 0)
	return err
}

func (w *storeSeam) Discard(off, length int64) error {
	sp := w.s.begin("discard")
	err := w.st.Discard(off, length)
	w.s.end(sp, 0)
	return err
}

func (w *storeSeam) Size() int64 { return w.st.Size() }
