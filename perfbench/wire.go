package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// Wire workload: one concurrent v0.6 mount behind fsserve, one fsrpc
// connection over a kernel socket pair, shared by wireStreams closed-loop
// streams. Each stream runs the script of the repository's pipelined
// serve comparison (buildScriptDir in internal/bench/serve.go, with
// servePipePayload and servePipeReadRounds) in its own directory: mkdir;
// per file create and a 4 KiB write, with an fsync of every 16th file
// at the stream's phase; 4 read-back rounds, round r looking up, reading
// and stat'ing the files i ≡ r (mod 4); then readdir, rename, unlink and
// statfs. Two things differ. The serve comparison runs 24–400 calls per
// stream, too few to time on the host, so each stream here makes
// wireFiles files (about 3 240 calls; a round's p99 rests on its ~65
// slowest of ~6 500 calls). And a read round visits its files in a
// seed-picked order rather than by index.
const (
	wireStreams    = 2
	wireWorkers    = 2 // fsserve workers and sim-pool workers: nproc
	wireFiles      = 640
	wireFsyncEvery = 16
	wireReadRounds = 4
	wirePayload    = 4 << 10
)

// Shard workload: a two-shard deployment, one routing client (one
// connection per shard), one closed-loop stream. Per shard prefix the
// working set is (shardPreFiles+shardNewFiles)×shardPayload = 9 MiB,
// over twice the file node's 4 MiB read cache, so cold re-reads reach
// the remote block store.
const (
	shardCount      = 2
	shardPreFiles   = 224
	shardNewFiles   = 64
	shardFsyncEvery = 16
	shardPayload    = 32 << 10
	shardReadRounds = 2
	// readCacheBytes is readcache's default size (64 lines of 64 KiB),
	// which controlplane deployments use.
	readCacheBytes = 64 * 64 << 10
)

// model is what a stream believes its directory holds.
type model map[string][]byte

func (m model) names() []string {
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func payloads(rnd *sim.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, size)
		for j := 0; j < size; j += 8 {
			v := rnd.Uint64()
			for k := 0; k < 8 && j+k < size; k++ {
				b[j+k] = byte(v >> (8 * k))
			}
		}
		out[i] = b
	}
	return out
}

// layDown writes files into a mount directly (set-up, not measured).
func layDown(m *vfs.Mount, dir string, data [][]byte, into model) error {
	if err := m.MkdirAll(dir); err != nil {
		return err
	}
	for i, b := range data {
		p := fmt.Sprintf("%s/f%05d", dir, i)
		f, err := m.Create(p)
		if err != nil {
			return err
		}
		_, err = f.Write(b)
		f.Close()
		if err != nil {
			return err
		}
		into[p] = b
	}
	return m.Sync()
}

// withHandle runs fn on *h. The server keeps a bounded table of open
// handles per session and evicts the oldest when it is full, answering
// EBADF; as DESIGN.md §11.2 asks of clients, a stream then looks the path
// up again and retries once, inside the same timed operation. The
// retries are counted (fsrpc.handle_retries).
func withHandle(d *driver, cli *fsrpc.Client, path string, h *uint64, fn func(uint64) error) error {
	err := fn(*h)
	if errors.Is(err, fsrpc.ErrBadHandle) {
		d.retries++
		if *h, _, err = cli.Lookup(path, true); err != nil {
			return err
		}
		err = fn(*h)
	}
	return err
}

// createFile creates path in m and writes data to it through cli,
// fsyncing when asked. It reports whether the data was written.
func createFile(d *driver, cli *fsrpc.Client, path string, data []byte, fsync bool, m model) bool {
	var h uint64
	if d.do("meta", "create", func() (err error) { h, _, err = cli.Create(path); return }) != nil {
		return false
	}
	m[path] = nil
	if d.do("write", "write", func() error {
		return withHandle(d, cli, path, &h, func(h uint64) error {
			n, err := cli.Write(h, 0, data)
			if err == nil && n != len(data) {
				err = fmt.Errorf("short write %d/%d", n, len(data))
			}
			return err
		})
	}) != nil {
		return false
	}
	m[path] = data
	if fsync {
		d.do("fsync", "fsync", func() error { return withHandle(d, cli, path, &h, cli.Fsync) })
	}
	return true
}

// readBack opens, reads and stats path, checking both against want.
func readBack(d *driver, cli *fsrpc.Client, path string, want []byte) {
	var h uint64
	if d.do("meta", "lookup", func() (err error) { h, _, err = cli.Lookup(path, true); return }) != nil {
		return
	}
	var got []byte
	if d.do("read", "read", func() error {
		return withHandle(d, cli, path, &h, func(h uint64) (err error) { got, err = cli.Read(h, 0, len(want)); return })
	}) == nil {
		d.r.check(bytes.Equal(got, want), "%s: read %d bytes that differ from the %d written", path, len(got), len(want))
	}
	var a fsrpc.Attr
	if d.do("meta", "getattr", func() (err error) { a, err = cli.Getattr(path); return }) == nil {
		d.r.check(a.Size == int64(len(want)), "%s: getattr size %d, wrote %d", path, a.Size, len(want))
	}
}

// checkDir compares a readdir of dir with the stream's model.
func checkDir(d *driver, cli *fsrpc.Client, dir string, m model) {
	var ents []fsrpc.DirEnt
	if d.do("meta", "readdir", func() (err error) { ents, err = cli.Readdir(dir); return }) != nil {
		return
	}
	var got []string
	for _, e := range ents {
		got = append(got, dir+"/"+e.Name)
	}
	sort.Strings(got)
	want := m.names()
	d.r.check(fmt.Sprint(got) == fmt.Sprint(want), "%s: readdir lists %d entries, model has %d", dir, len(got), len(want))
}

func runWire(r *round, scale int64) error {
	var n *node
	var srv *fsserve.Server
	var cli *fsrpc.Client
	rnd := sim.NewRand(r.seed)
	models := make([]model, wireStreams)
	fresh := make([][][]byte, wireStreams)
	err := r.setupPhase(func() error {
		var err error
		if n, err = buildNode(r.rec, scale, wireWorkers); err != nil {
			return err
		}
		cfg := fsserve.DefaultConfig()
		cfg.Workers = wireWorkers
		srv = fsserve.New(n.env, n.mount, cfg)
		cliEnd, srvEnd, err := socketPair()
		if err != nil {
			return err
		}
		go srv.ServeConn(srvEnd)
		cli = fsrpc.NewClientOpts(cliEnd, fsrpc.Options{Metrics: n.env.Metrics})
		for s := range models {
			models[s] = make(model)
			fresh[s] = payloads(rnd, wireFiles, wirePayload)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	defer cli.Close()

	// Each stream draws its picks from its own generator, seeded from
	// --seed, so the op sequence of a stream does not depend on how the
	// two streams interleave.
	seeds := []uint64{rnd.Uint64(), rnd.Uint64()}
	simStart := n.env.Now()
	r.timedPhase(func() (metrics.Snapshot, metrics.Snapshot) {
		srv.Quiesce()
		s := n.env.Metrics.Snapshot()
		return s, s
	}, func() {
		var wg sync.WaitGroup
		for s := 0; s < wireStreams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				d := r.driver(r.rec.seam(n.env, "fsrpc", "fsserve"))
				wireStream(d, cli, fmt.Sprintf("w%d", s), s, sim.NewRand(seeds[s]), fresh[s], models[s])
				d.finish()
			}(s)
		}
		wg.Wait()
	})
	r.sim["wire_kops"] = float64(r.ops) / (n.env.Now() - simStart).Seconds() / 1e3
	r.wire = true
	return nil
}

// wireStream is one closed-loop stream running the serve comparison's
// script in dir; phase staggers the streams' fsyncs as that script does.
func wireStream(d *driver, cli *fsrpc.Client, dir string, phase int, rnd *sim.Rand, fresh [][]byte, m model) {
	if d.do("meta", "mkdir", func() error { return cli.Mkdir(dir) }) != nil {
		return
	}
	path := func(i int) string { return fmt.Sprintf("%s/f%05d", dir, i) }
	for i, data := range fresh {
		createFile(d, cli, path(i), data, i%wireFsyncEvery == phase%wireFsyncEvery, m)
	}
	for r := 0; r < wireReadRounds; r++ {
		var files []int
		for i := r; i < len(fresh); i += wireReadRounds {
			files = append(files, i)
		}
		for _, k := range rnd.Perm(len(files)) {
			if p := path(files[k]); m[p] != nil {
				readBack(d, cli, p, m[p])
			}
		}
	}
	checkDir(d, cli, dir, m)
	from, to := path(0), dir+"/renamed"
	if d.do("meta", "rename", func() error { return cli.Rename(from, to) }) == nil {
		m[to] = m[from]
		delete(m, from)
		if d.do("meta", "unlink", func() error { return cli.Unlink(to) }) == nil {
			delete(m, to)
		}
	}
	d.do("meta", "statfs", func() error { _, err := cli.Statfs(); return err })
	checkDir(d, cli, dir, m)
}

func runShard(r *round, scale int64) error {
	var dep *deployment
	var clis []*fsrpc.Client
	rnd := sim.NewRand(r.seed)
	m := make(model)
	dirs := make([]string, shardCount)
	fresh := make([][][]byte, shardCount)
	err := r.setupPhase(func() error {
		var err error
		if dep, err = buildDeployment(r.rec, shardCount, scale); err != nil {
			return err
		}
		for i, sh := range dep.shards {
			dirs[i] = fmt.Sprintf("s%02d/data", i)
			clis = append(clis, dep.dial(i))
			if err := layDown(sh.mount, dirs[i], payloads(rnd, shardPreFiles, shardPayload), m); err != nil {
				return err
			}
			fresh[i] = payloads(rnd, shardNewFiles, shardPayload)
		}
		return nil
	})
	if err != nil {
		if dep != nil {
			dep.close()
		}
		return err
	}
	defer dep.close()
	defer func() {
		for _, c := range clis {
			c.Close()
		}
	}()

	// One driver per shard so each caller-side span runs on the clock of
	// the file node that serves it; both drivers run on this goroutine.
	ds := make([]*driver, shardCount)
	simStart := make([]time.Duration, shardCount)
	for i, sh := range dep.shards {
		ds[i] = r.driver(r.rec.seam(sh.fileEnv, "fsrpc", "fsserve"))
		simStart[i] = sh.fileEnv.Now()
	}
	at := func(path string) (*driver, *fsrpc.Client) {
		i := dep.routes.Route(path)
		return ds[i], clis[i]
	}
	r.timedPhase(func() (all, front metrics.Snapshot) {
		dep.quiesce()
		for _, sh := range dep.shards {
			file := sh.fileEnv.Metrics.Snapshot()
			front.Merge(file)
			all.Merge(file)
			all.Merge(sh.storageEnv.Metrics.Snapshot())
		}
		return all, front
	}, func() {
		for k := 0; k < shardNewFiles; k++ {
			for i := range dirs {
				p := fmt.Sprintf("%s/f%05d", dirs[i], shardPreFiles+k)
				d, cli := at(p)
				createFile(d, cli, p, fresh[i][k], k%shardFsyncEvery == 0, m)
			}
		}
		names := m.names()
		for round := 0; round < shardReadRounds; round++ {
			// Cold round: without the drop the file nodes' page caches
			// absorb every re-read and the read cache sees nothing.
			for _, sh := range dep.shards {
				sh.mount.DropCaches()
			}
			for _, i := range rnd.Perm(len(names)) {
				d, cli := at(names[i])
				readBack(d, cli, names[i], m[names[i]])
			}
		}
		for i, dir := range dirs {
			sub := make(model)
			for p, b := range m {
				if dep.routes.Route(p) == i {
					sub[p] = b
				}
			}
			checkDir(ds[i], clis[i], dir, sub)
		}
	})
	for _, d := range ds {
		d.finish()
	}
	var simMax time.Duration
	for i, sh := range dep.shards {
		if el := sh.fileEnv.Now() - simStart[i]; el > simMax {
			simMax = el
		}
	}
	r.sim["shard_kops"] = float64(r.ops) / simMax.Seconds() / 1e3
	r.wire = true
	return nil
}
