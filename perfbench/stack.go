package main

import (
	"fmt"
	"net"
	"os"
	"syscall"

	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/blockstore"
	"betrfs/internal/blockstore/local"
	"betrfs/internal/blockstore/readcache"
	"betrfs/internal/blockstore/remote"
	"betrfs/internal/controlplane"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/ftl"
	"betrfs/internal/kmem"
	"betrfs/internal/registry"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// The stacks are assembled here from the same public constructors
// bench.Build and controlplane.New use, so the benchmark can put a timing
// seam at each layer interface. With a nil recorder nothing is wrapped
// and the stack is exactly the program's.

// cacheSizes is a node's RAM split the way bench.Build splits it for
// BetrFS: half page cache, half Bε-tree node cache.
func cacheSizes(scale int64) (pageCache, nodeCache int64) {
	ram := (32 << 30) / scale // the paper testbed's 32 GB, scaled
	return ram / 2, ram / 2
}

// node is one BetrFS v0.6 machine over a local FTL-backed SSD.
type node struct {
	env   *sim.Env
	mount *vfs.Mount
}

// buildNode mirrors bench.Build("betrfs-v0.6", scale) (workers == 0) and
// bench.BuildConcurrent (workers > 0).
func buildNode(rec *recorder, scale int64, workers int) (*node, error) {
	env := sim.NewEnv(1)
	if workers > 0 {
		env.Pool.SetWorkers(workers)
	}
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(scale))
	fdev := ftl.New(env, wrapDevice(rec.seam(env, "blockdev", "blockdev"), dev), ftl.DefaultConfig())
	mount, err := mountV06(rec, env, wrapDevice(rec.seam(env, "", "ftl"), fdev), scale, workers > 0)
	if err != nil {
		return nil, err
	}
	return &node{env: env, mount: mount}, nil
}

// mountV06 mounts BetrFS v0.6 over dev through the Simple File Layer.
func mountV06(rec *recorder, env *sim.Env, dev blockdev.Device, scale int64, concurrent bool) (*vfs.Mount, error) {
	pageCache, nodeCache := cacheSizes(scale)
	cfg := betrfs.V06Config()
	cfg.Tree.CacheBytes = nodeCache
	cfg.Tree.Concurrent = concurrent
	backend, err := sfl.NewDefault(env, dev)
	if err != nil {
		return nil, fmt.Errorf("sfl: %w", err)
	}
	fs, err := betrfs.New(env, kmem.New(env, cfg.CooperativeMem), cfg,
		wrapBackend(rec, rec.seam(env, "", "sfl"), backend))
	if err != nil {
		return nil, fmt.Errorf("betrfs: %w", err)
	}
	vcfg := vfs.DefaultConfig()
	vcfg.CacheBytes = pageCache
	vcfg.Concurrent = concurrent
	return vfs.NewMount(env, wrapFS(rec.seam(env, "betrfs", "betrfs"), fs), vcfg), nil
}

// socketPair returns the two ends of a kernel stream socket pair: a
// buffered duplex that behaves like the TCP connection fsserved serves,
// without a listening port.
func socketPair() (net.Conn, net.Conn, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("socketpair: %w", err)
	}
	var conns [2]net.Conn
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "wire")
		c, err := net.FileConn(f) // dups fd
		f.Close()
		if err != nil {
			if i == 1 {
				conns[0].Close()
			} else {
				syscall.Close(fds[1])
			}
			return nil, nil, fmt.Errorf("socketpair: %w", err)
		}
		conns[i] = c
	}
	return conns[0], conns[1], nil
}

// shardNode is one shard of a deployment laid out as controlplane.New
// lays it out: a storage node exporting its FTL device as a block share,
// and a file node mounting v0.6 over that share through a read cache,
// behind its own fsserve front end.
type shardNode struct {
	fileEnv    *sim.Env
	storageEnv *sim.Env
	mount      *vfs.Mount
	front      *fsserve.Server
	storage    *fsserve.Server
	storageCli *fsrpc.Client
}

type deployment struct {
	routes *controlplane.ShardMap
	shards []*shardNode
}

// buildDeployment mirrors controlplane.New(Config{Shards: n, Scale:
// scale}). Seams sit under local.New (the storage seam, a device
// wrapper), over the file node's AsDevice(readcache) and between the
// read cache and the remote store.
func buildDeployment(rec *recorder, n int, scale int64) (*deployment, error) {
	d := &deployment{routes: controlplane.NewShardMap(n, controlplane.DefaultRoutes(n))}
	for i := 0; i < n; i++ {
		sh, err := buildShard(rec, scale)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		d.shards = append(d.shards, sh)
	}
	return d, nil
}

func buildShard(rec *recorder, scale int64) (*shardNode, error) {
	senv := sim.NewEnv(1)
	dev := blockdev.New(senv, blockdev.SamsungEVO860().Scale(scale))
	fdev := ftl.New(senv, wrapDevice(rec.seam(senv, "blockdev", "blockdev"), dev), ftl.DefaultConfig())
	sreg := registry.New()
	sreg.AddStore(controlplane.BlockShare, senv, local.New(wrapDevice(rec.seam(senv, "storage", "ftl"), fdev)))
	scfg := fsserve.DefaultConfig()
	scfg.Registry = sreg
	storage := fsserve.New(senv, nil, scfg)

	fenv := sim.NewEnv(1)
	cliEnd, srvEnd := net.Pipe()
	go storage.ServeConn(srvEnd)
	scli := fsrpc.NewClientOpts(cliEnd, fsrpc.Options{Metrics: fenv.Metrics})
	sh := &shardNode{fileEnv: fenv, storageEnv: senv, storage: storage, storageCli: scli}
	rstore, err := remote.Open(scli, controlplane.BlockShare)
	if err != nil {
		sh.close()
		return nil, err
	}
	cache := readcache.New(fenv.Metrics, wrapStore(rec.seam(fenv, "remote", "remote"), rstore), readcache.Config{})
	bdev := wrapDevice(rec.seam(fenv, "", "readcache"), blockstore.AsDevice(fenv, cache))
	sh.mount, err = mountV06(rec, fenv, bdev, scale, false)
	if err != nil {
		sh.close()
		return nil, err
	}
	freg := registry.New()
	freg.AddMount(controlplane.MountShare, fenv, sh.mount)
	fcfg := fsserve.DefaultConfig()
	fcfg.Registry = freg
	sh.front = fsserve.New(fenv, sh.mount, fcfg)
	return sh, nil
}

func (sh *shardNode) close() {
	if sh.front != nil {
		sh.front.Shutdown()
	}
	sh.storageCli.Close()
	sh.storage.Shutdown()
}

func (d *deployment) close() {
	for _, sh := range d.shards {
		sh.close()
	}
}

// dial opens one wire connection to shard i's front end, as
// controlplane's Deployment.Dial does.
func (d *deployment) dial(i int) *fsrpc.Client {
	cliEnd, srvEnd := net.Pipe()
	go d.shards[i].front.ServeConn(srvEnd)
	return fsrpc.NewClientOpts(cliEnd, fsrpc.Options{})
}

func (d *deployment) quiesce() {
	for _, sh := range d.shards {
		sh.front.Quiesce()
		sh.storage.Quiesce()
	}
}
