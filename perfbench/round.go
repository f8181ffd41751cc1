package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	bmetrics "betrfs/internal/metrics"
)

// round is one run of one workload in this process: set-up, the timed
// phase, and the output checks. Every workload does a fixed amount of
// work per round, so alloc_mb and cpu_s compare across commits.
type round struct {
	seed uint64
	rec  *recorder // nil: untraced

	setup time.Duration
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gc    gcSample

	mu      sync.Mutex
	lat     []int64 // host ns per completed operation
	byClass map[string][]int64
	ops     int64
	retries int64 // fsrpc calls retried after an evicted handle
	failed  int64
	checks  int64
	errs    []string

	wire  bool               // operations are fsrpc calls
	sim   map[string]float64 // simulated cells
	snap  bmetrics.Snapshot  // the program's own counters, all machines
	front bmetrics.Snapshot  // counters of the machines serving the wire calls
}

func newRound(seed uint64, rec *recorder) *round {
	return &round{seed: seed, rec: rec, byClass: make(map[string][]int64), sim: make(map[string]float64)}
}

const maxErrs = 20

func (r *round) failf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check records one output check; a false ok fails the round.
func (r *round) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	r.checks++
	r.mu.Unlock()
	if !ok {
		r.failf("check: "+format, args...)
	}
}

// addOps merges one driver's per-operation latencies and retries.
func (r *round) addOps(lat []int64, class map[string][]int64, retries int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops += int64(len(lat))
	r.retries += retries
	r.lat = append(r.lat, lat...)
	for c, v := range class {
		r.byClass[c] = append(r.byClass[c], v...)
	}
}

// setupPhase times fn as set-up.
func (r *round) setupPhase(fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.setup += time.Since(t0)
	return err
}

// counters reads the program's own metrics once its servers are idle:
// every machine's, and those of the machines serving the wire calls.
type counters func() (all, front bmetrics.Snapshot)

// timedPhase times fn on the host: wall, process CPU and heap bytes
// allocated. A collection first clears the set-up's garbage, so each
// timed phase starts from the same heap; the collector then runs at its
// default settings, and its cost counts. Spans and the program's
// counters are taken over the timed phase only.
func (r *round) timedPhase(read counters, fn func()) {
	all0, front0 := read()
	runtime.GC()
	if r.rec != nil {
		r.rec.on.Store(true)
	}
	g0 := readGC()
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	r.wall += time.Since(t0)
	r.cpu += cpuTime() - c0
	g1 := readGC()
	if r.rec != nil {
		r.rec.on.Store(false)
	}
	r.alloc += g1.allocBytes - g0.allocBytes
	r.gc.add(g1.sub(g0))
	all1, front1 := read()
	r.snap.Merge(bmetrics.Diff(all0, all1))
	r.front.Merge(bmetrics.Diff(front0, front1))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcSample is a reading of the Go runtime's own counters.
type gcSample struct {
	allocBytes uint64
	cycles     uint64
	gcCPU      float64 // seconds
	pauses     float64 // seconds
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g gcSample
	g.allocBytes = s[0].Value.Uint64()
	g.cycles = s[1].Value.Uint64()
	g.gcCPU = s[2].Value.Float64()
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		for i, c := range h.Counts {
			// Bucket midpoints; the edge buckets are open-ended.
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			g.pauses += float64(c) * (lo + hi) / 2
		}
	}
	return g
}

func (g gcSample) sub(o gcSample) gcSample {
	return gcSample{
		allocBytes: g.allocBytes - o.allocBytes,
		cycles:     g.cycles - o.cycles,
		gcCPU:      g.gcCPU - o.gcCPU,
		pauses:     g.pauses - o.pauses,
	}
}

func (g *gcSample) add(o gcSample) {
	g.allocBytes += o.allocBytes
	g.cycles += o.cycles
	g.gcCPU += o.gcCPU
	g.pauses += o.pauses
}

// driver issues one closed-loop stream's operations, timing each one
// from the caller's side. Drivers are single-goroutine; their samples
// merge into the round when the stream ends.
type driver struct {
	r       *round
	s       *seam // the caller-side seam when traced
	lat     []int64
	class   map[string][]int64
	retries int64
}

func (r *round) driver(s *seam) *driver {
	return &driver{r: r, s: s, class: make(map[string][]int64)}
}

// do runs one operation of the given class and records its latency. A
// failed operation is counted and reported; the caller decides whether
// the stream can go on.
func (d *driver) do(class, op string, fn func() error) error {
	var sp *span
	if d.s != nil {
		sp = d.s.begin(op)
	}
	t0 := time.Now()
	err := fn()
	el := int64(time.Since(t0))
	if sp != nil {
		d.s.end(sp, 0)
	}
	d.lat = append(d.lat, el)
	d.class[class] = append(d.class[class], el)
	if err != nil {
		d.r.failf("%s: %v", op, err)
	}
	return err
}

func (d *driver) finish() { d.r.addOps(d.lat, d.class, d.retries) }

// quantile is the exact rank-based q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
