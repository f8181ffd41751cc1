package sim

import (
	"time"

	"betrfs/internal/metrics"
)

// Env bundles the shared clock, cost table, and random source handed to
// every simulated component. One Env corresponds to one machine.
type Env struct {
	Clock *Clock
	Costs Costs
	Rand  *Rand

	// Metrics is the machine's observability registry: every layer
	// registers its counters and histograms here at construction time.
	// Recording metrics never advances the clock (the metrics package has
	// no access to it), so instrumentation cannot perturb results.
	Metrics *metrics.Registry

	// Pool is the machine's bounded background-worker pool. With a single
	// worker (the default) every submitted task runs inline at its
	// submission point, which keeps single-goroutine simulations
	// bit-identical; with more workers, tasks run on goroutines. See
	// DESIGN.md §9.
	Pool *WorkerPool
}

// NewEnv returns an environment with default costs and the given seed. The
// worker pool starts with one worker (deterministic inline mode); call
// Pool.SetWorkers to enable background concurrency.
func NewEnv(seed uint64) *Env {
	e := &Env{
		Clock:   NewClock(),
		Costs:   DefaultCosts(),
		Rand:    NewRand(seed),
		Metrics: metrics.NewRegistry(),
	}
	e.Pool = NewWorkerPool(e, 1)
	return e
}

// Now returns the current simulated time.
func (e *Env) Now() time.Duration { return e.Clock.Now() }

// Trace emits one typed trace event stamped with the current simulated time,
// if tracing is enabled on this environment's registry. The check is a single
// atomic load, so disabled tracing costs nothing on hot paths, and emission
// never advances the clock.
func (e *Env) Trace(layer, op, key string, value int64) {
	if e.Metrics != nil && e.Metrics.Tracing() {
		e.Metrics.Emit(metrics.Event{When: e.Now(), Layer: layer, Op: op, Key: key, Value: value})
	}
}

// Charge advances the clock by a fixed CPU cost.
func (e *Env) Charge(d time.Duration) {
	e.Clock.Advance(d)
}

func psCost(bytes int, psPerByte int64) time.Duration {
	return time.Duration(int64(bytes) * psPerByte / 1000)
}

// Memcpy charges for copying n bytes.
func (e *Env) Memcpy(n int) {
	e.Clock.Advance(psCost(n, e.Costs.MemcpyPsPerByte))
}

// Checksum charges for checksumming n bytes.
func (e *Env) Checksum(n int) {
	e.Clock.Advance(psCost(n, e.Costs.ChecksumPsPerByte))
}

// Serialize charges for encoding or decoding n bytes of structured data.
func (e *Env) Serialize(n int) {
	e.Clock.Advance(psCost(n, e.Costs.SerializePsPerByte))
}

// Compare charges for one key comparison that inspected n bytes.
func (e *Env) Compare(n int) {
	e.Clock.Advance(e.Costs.CompareBase + psCost(n, e.Costs.ComparePsPerByte))
}

// CompareBulk charges for n key comparisons of avgLen bytes each in one
// arithmetic step. Components use it when an algorithm's comparison count
// is known in closed form (e.g. PacMan's quadratic scan), so the simulated
// cost stays faithful without the host looping pair by pair.
func (e *Env) CompareBulk(n int, avgLen int) {
	if n <= 0 {
		return
	}
	e.Clock.Advance(time.Duration(n)*e.Costs.CompareBase + psCost(n*avgLen, e.Costs.ComparePsPerByte))
}
