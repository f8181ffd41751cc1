package main

import (
	"math"
	"time"

	"betrfs/internal/bench"
	bmetrics "betrfs/internal/metrics"
)

// simGap is the mean |log2(measured/paper)| over a workload's scale-free
// simulated cells that have a paper value for BetrFS v0.6. It is 0 when
// the workload has no such cell (wire, shard).
func simGap(cells map[string]float64) float64 {
	paper := bench.PaperMicro["betrfs-v0.6"]
	ref := map[string]float64{
		"seq_write_MBps": paper.SeqWrite,
		"seq_read_MBps":  paper.SeqRead,
		"rand4k_MBps":    paper.Rand4K,
		"rand4b_MBps":    paper.Rand4B,
		"tokubench_kops": paper.TokuBench,
	}
	var sum float64
	var n int
	for name, want := range ref {
		if got, ok := cells[name]; ok && got > 0 && want > 0 {
			sum += math.Abs(math.Log2(got / want))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func histMean(h bmetrics.HistSnapshot) float64 { return ratio(h.Sum, h.Count) }

func p50us(v []int64) float64 { return float64(quantile(sortedCopy(v), 0.50)) / 1e3 }

// perLayer derives the per-layer metrics of a traced round from its span
// totals and the program's own counters. Busy time is a layer's total
// span time; self time subtracts the spans it caused one layer down. In
// unlinked mode (wire) spans carry no parents, so self time equals busy
// time and fsserve's share is computed as client call time minus the
// server-side vfs.FS seam time.
func perLayer(r *round) map[string]float64 {
	rec := r.rec
	t := func(layer string) layerTotals {
		if lt := rec.totals[layer]; lt != nil {
			return *lt
		}
		return layerTotals{}
	}
	c := r.snap.Counters
	f := r.front.Counters
	vfsL, betrfsL, betreeL, walL := t("vfs"), t("betrfs"), t("betree"), t("wal")
	sflL, ftlL, devL, rpcL, srvL := t("sfl"), t("ftl"), t("blockdev"), t("fsrpc"), t("fsserve")
	rcL, remL, stL := t("readcache"), t("remote"), t("storage")
	fsserveSelf := srvL.selfHost
	if !rec.linked {
		fsserveSelf = rpcL.host - betrfsL.host
	}
	m := map[string]float64{
		"vfs.self_host_ms":     ms(vfsL.selfHost),
		"vfs.self_sim_ms":      ms(vfsL.selfSim),
		"vfs.page_evict":       float64(c["vfs.page.evict"]),
		"vfs.page_cow":         float64(c["vfs.page.cow"]),
		"vfs.write_rmw":        float64(c["vfs.write.rmw"]),
		"vfs.dcache_hit_ratio": ratio(c["vfs.dcache.hit"], c["vfs.lookup.count"]),

		"betrfs.calls":        float64(betrfsL.calls),
		"betrfs.host_ms":      ms(betrfsL.host),
		"betrfs.sim_ms":       ms(betrfsL.sim),
		"betrfs.self_host_ms": ms(betrfsL.selfHost),
		"betrfs.self_sim_ms":  ms(betrfsL.selfSim),

		"betree.io_calls":           float64(betreeL.calls),
		"betree.io_host_ms":         ms(betreeL.host),
		"betree.io_sim_ms":          ms(betreeL.sim),
		"betree.io_bytes":           float64(betreeL.bytes),
		"betree.msg_flush":          float64(c["betree.msg.flush"]),
		"betree.msg_pushed":         float64(c["betree.msg.pushed"]),
		"betree.node_write":         float64(c["betree.node.write"]),
		"betree.cache_hit_ratio":    ratio(c["betree.cache.hit"], c["betree.cache.hit"]+c["betree.cache.miss"]),
		"betree.prefetch_hit_ratio": ratio(c["betree.prefetch.hit"], c["betree.prefetch.issue"]),

		"wal.io_calls":     float64(walL.calls),
		"wal.io_host_ms":   ms(walL.host),
		"wal.io_sim_ms":    ms(walL.sim),
		"wal.bytes_logged": float64(c["wal.bytes.logged"]),
		"wal.fsync_count":  float64(c["wal.fsync.count"]),

		"kmem.allocs":                float64(c["kmem.alloc.kmalloc"] + c["kmem.alloc.vmalloc"]),
		"kmem.buffercache_hit_ratio": ratio(c["kmem.buffercache.hit"], c["kmem.buffercache.hit"]+c["kmem.buffercache.miss"]),
		"kmem.bytes_copied":          float64(c["kmem.bytes.copied"]),

		"sfl.self_host_ms": ms(sflL.selfHost),
		"sfl.self_sim_ms":  ms(sflL.selfSim),

		"ftl.self_host_ms": ms(ftlL.selfHost),
		"ftl.self_sim_ms":  ms(ftlL.selfSim),
		"ftl.waf":          ratio(c["ftl.write.flash.bytes"], c["ftl.write.host.bytes"]),
		"ftl.gc_run":       float64(c["ftl.gc.run"]),

		"blockdev.calls":               float64(devL.calls),
		"blockdev.host_ms":             ms(devL.host),
		"blockdev.sim_ms":              ms(devL.sim),
		"blockdev.read_bytes":          float64(c["blockdev.read.bytes"]),
		"blockdev.write_bytes":         float64(c["blockdev.write.bytes"]),
		"blockdev.flush_count":         float64(c["blockdev.flush.count"]),
		"blockdev.bytes_per_user_byte": ratio(c["blockdev.write.bytes"], c["vfs.bytes.written"]),

		"fsrpc.calls":               float64(rpcL.calls),
		"fsrpc.handle_retries":      float64(r.retries),
		"fsrpc.read_p50_us":         p50us(r.byClass["read"]),
		"fsrpc.write_p50_us":        p50us(r.byClass["write"]),
		"fsrpc.meta_p50_us":         p50us(r.byClass["meta"]),
		"fsrpc.fsync_p50_us":        p50us(r.byClass["fsync"]),
		"fsrpc.pipeline_depth_mean": histMean(r.front.Histograms["fsrpc.pipeline.depth"]),
		"fsrpc.bytes_per_call":      ratio(f["fsrpc.req.bytes"]+f["fsrpc.resp.bytes"], f["fsrpc.req.count"]),

		"fsserve.self_host_ms":       ms(fsserveSelf),
		"fsserve.batch_replies_mean": histMean(r.front.Histograms["fsserve.batch.replies"]),
		"fsserve.queue_shed":         float64(f["fsserve.queue.shed"] + f["fsserve.deadline.shed"]),
		"fsserve.zerocopy_bytes":     float64(f["fsserve.zerocopy.bytes"]),

		"readcache.self_host_ms": ms(rcL.selfHost),
		"readcache.hit_ratio":    ratio(c["readcache.hit"], c["readcache.hit"]+c["readcache.miss"]),
		"readcache.evict":        float64(c["readcache.evict"]),

		"remote.calls":   float64(remL.calls),
		"remote.host_ms": ms(remL.host),
		"remote.sim_ms":  ms(remL.sim),
		"remote.bytes":   float64(remL.bytes),

		"storage.host_ms": ms(stL.host),
		"storage.sim_ms":  ms(stL.sim),

		"trace.spans":   float64(rec.spans),
		"trace.dropped": float64(rec.dropped),
	}
	if !r.wire {
		for _, k := range []string{"fsrpc.read_p50_us", "fsrpc.write_p50_us", "fsrpc.meta_p50_us", "fsrpc.fsync_p50_us"} {
			m[k] = 0
		}
	}
	return m
}

// simCells names every simulated cell; a workload reports the ones it
// measures and 0 for the rest.
var simCells = []string{
	"seq_write_MBps", "seq_read_MBps", "rand4k_MBps", "rand4b_MBps", "tokubench_kops",
	"grep_s", "find_s", "rm_s", "wire_kops", "shard_kops",
}
