// Command perfbench runs one round of one benchmark workload against
// BetrFS v0.6 and prints its measurements as one JSON line. run.py drives
// it: it builds this program, runs rounds in fresh processes for the
// requested time, checks the outputs and reports medians.
//
//	go run . -workload bulk -seed 1
//	go run . -workload wire -seed 1 -traced -trace-out wire.json
//	go run . -workload bulk -reference
//
// See README.md for the workloads, the metrics and their known limits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"betrfs/internal/bench"
)

// benchScale divides the paper's sizes as bench.Build's scale does: at
// 1024 the sequential file is 80 MiB against a 16 MiB page cache and a
// 16 MiB node cache, and one round of any workload takes about a second.
const benchScale = 1024

var workloads = map[string]func(*round, int64) error{
	"bulk":  runBulk,
	"small": runSmall,
	"wire":  runWire,
	"shard": runShard,
}

// result is one round's output line.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Scale     int64              `json:"scale"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	AllocMB   float64            `json:"alloc_mb"`
	Ops       int64              `json:"ops"`
	Retries   int64              `json:"handle_retries"`
	P50us     float64            `json:"p50_us"`
	P99us     float64            `json:"p99_us"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Sim       map[string]float64 `json:"sim"`
	SimGap    float64            `json:"sim_gap"`
	GC        map[string]float64 `json:"gc"`
	Sizes     map[string]int64   `json:"sizes"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload: bulk, small, wire or shard")
	seed := flag.Uint64("seed", 1, "seed for every random choice the benchmark makes")
	traced := flag.Bool("traced", false, "time each layer through seams (per-layer metrics)")
	traceOut := flag.String("trace-out", "", "with -traced, write the spans here as Chrome trace-event JSON")
	reference := flag.Bool("reference", false, "print the Table 1 cells of bulk or small as the program's own code computes them")
	flag.Parse()
	if *reference {
		names, ok := microCells[*name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: no reference cells for workload %q\n", *name)
			os.Exit(2)
		}
		all := referenceCells(benchScale)
		cells := make(map[string]float64)
		for _, c := range names {
			cells[c] = all[c]
		}
		if err := json.NewEncoder(os.Stdout).Encode(cells); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if oneThread[*name] {
		runtime.GOMAXPROCS(1)
	}
	res, err := runRound(*name, run, *seed, *traced, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func runRound(name string, run func(*round, int64) error, seed uint64, traced bool, traceOut string) (*result, error) {
	var rec *recorder
	if traced {
		// Only the wire workload has concurrent call chains (see recorder).
		rec = newRecorder(name != "wire")
	}
	r := newRound(seed, rec)
	if err := run(r, benchScale); err != nil {
		return nil, err
	}
	lat := sortedCopy(r.lat)
	res := &result{
		Workload:  name,
		Seed:      seed,
		Traced:    traced,
		Scale:     benchScale,
		SetupS:    r.setup.Seconds(),
		WallS:     r.wall.Seconds(),
		CPUS:      r.cpu.Seconds(),
		AllocMB:   float64(r.alloc) / 1e6,
		Ops:       r.ops,
		Retries:   r.retries,
		P50us:     float64(quantile(lat, 0.50)) / 1e3,
		P99us:     float64(quantile(lat, 0.99)) / 1e3,
		Attempted: r.ops + r.checks,
		Failed:    r.failed,
		Errors:    r.errs,
		Sim:       make(map[string]float64),
		SimGap:    simGap(r.sim),
		GC: map[string]float64{
			"gc_cycles":   float64(r.gc.cycles),
			"gc_cpu_s":    r.gc.gcCPU,
			"gc_pause_ms": r.gc.pauses * 1e3,
		},
		Sizes: sizes(name),
	}
	for _, c := range simCells {
		res.Sim[c] = r.sim[c]
	}
	if rec != nil {
		res.Layers = perLayer(r)
		if traceOut != "" {
			if err := rec.writeChrome(traceOut); err != nil {
				return nil, err
			}
			res.TraceFile = traceOut
		}
	}
	return res, nil
}

// sizes records how big each workload's working set is next to the
// caches it is meant to exceed or fit in.
func sizes(name string) map[string]int64 {
	p := bench.Scaled(benchScale)
	pageCache, nodeCache := cacheSizes(benchScale)
	s := map[string]int64{
		"page_cache_bytes": pageCache,
		"node_cache_bytes": nodeCache,
		"streams":          1,
		"connections":      0,
	}
	switch name {
	case "bulk":
		s["working_set_bytes"] = p.SeqBytes
	case "small":
		// The largest metadata cell: two copies of the rm -rf tree.
		var tree int64
		rmTree(p).Paths(func(_ string, dir bool, size int) {
			if !dir {
				tree += int64(size)
			}
		})
		s["working_set_bytes"] = 2 * tree
	case "wire":
		s["streams"] = wireStreams
		s["connections"] = 1
		s["working_set_bytes"] = wireStreams * wireFiles * wirePayload
	case "shard":
		s["connections"] = shardCount
		s["readcache_bytes"] = readCacheBytes
		s["working_set_bytes"] = (shardPreFiles + shardNewFiles) * shardPayload // per shard
	}
	return s
}

// oneThread names the workloads whose Go code runs on one thread at a
// time. wire and shard run client streams, session readers, server
// workers and sim-pool workers together. On a 2-vCPU host shared with
// other load, two threads of Go code plus the threads in socket
// syscalls are more threads than CPUs, and the latency tail then
// measures the host's scheduler (waits of a whole 4 ms tick), not the
// program. In runs interleaved on such a host, p99_us spread across runs
// by 0.93 of its median on wire and 0.20 on shard with two threads, and by
// 0.23 and 0.04 with one. bulk and small are one goroutine, so their
// second thread runs only the collector, and keeping it steadies
// small's microsecond-scale p50_us.
var oneThread = map[string]bool{"wire": true, "shard": true}

func init() {
	// The runtime and its collector keep their defaults; only the
	// processor count is capped at the 2 CPUs the load is sized for.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
}
