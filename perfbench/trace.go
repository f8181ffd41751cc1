package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"betrfs/internal/sim"
)

// A seam is one layer boundary the benchmark times from outside: every
// call through it is a span. A span's duration counts as busy time of
// the layer the call enters (busy) and, minus the part covered by its
// child spans, as self time of the layer that runs between this seam and
// the next one down (self). The two differ at the stor.File seam, whose
// calls belong to the betree or wal layer that issued them but whose
// self time is the Simple File Layer's.
type seam struct {
	rec  *recorder
	env  *sim.Env // the clock of the machine the seam runs on
	busy string
	self string
}

type span struct {
	seam      *seam
	op        string
	id        int64
	parent    *span
	req       int64
	hostStart time.Duration // since the recorder's epoch
	simStart  time.Duration
	childHost time.Duration
	childSim  time.Duration // children on the same clock only
}

// layerTotals accumulates one layer's spans.
type layerTotals struct {
	calls     int64
	bytes     int64
	host, sim time.Duration // busy
	selfHost  time.Duration
	selfSim   time.Duration
}

// event is one retained span in Chrome trace-event form.
type event struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`  // host µs since the round started
	Dur  float64   `json:"dur"` // host µs
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args eventArgs `json:"args"`
}

type eventArgs struct {
	ID         int64  `json:"id"`
	Parent     int64  `json:"parent"` // 0: none recorded
	Req        int64  `json:"req"`    // id of the chain's root span
	SelfLayer  string `json:"self_layer"`
	SimStartNs int64  `json:"sim_start_ns"`
	SimDurNs   int64  `json:"sim_dur_ns"`
}

// maxKeptSpans bounds the spans retained for the trace file, so a traced
// round's memory stays a few tens of MB however many crossings it makes.
// Totals still include every span; trace.dropped counts the rest.
const maxKeptSpans = 200_000

// recorder collects spans. In linked mode every seam crossing nests in
// the innermost open span, which is right only while one call chain at a
// time runs through the stack: true for the single-goroutine bulk and
// small stacks and for the one-stream shard workload, whose chain hops
// goroutines (client, server, storage node) but never runs two links at
// once. The wire workload runs two streams and a worker pool, so its
// spans are recorded unlinked: no parent, self time equal to busy time.
type recorder struct {
	on      atomic.Bool // record only during timed phases
	mu      sync.Mutex
	linked  bool
	epoch   time.Time
	stack   []*span
	nextID  int64
	totals  map[string]*layerTotals
	kept    []event
	spans   int64
	dropped int64
	tids    map[string]int
}

func newRecorder(linked bool) *recorder {
	return &recorder{
		linked: linked,
		epoch:  time.Now(),
		totals: make(map[string]*layerTotals),
		tids:   make(map[string]int),
	}
}

// seam returns a seam on env's clock; nil when r is nil (untraced run),
// which every wrapper constructor takes as "do not wrap".
func (r *recorder) seam(env *sim.Env, busy, self string) *seam {
	if r == nil {
		return nil
	}
	return &seam{rec: r, env: env, busy: busy, self: self}
}

func (r *recorder) layer(name string) *layerTotals {
	t := r.totals[name]
	if t == nil {
		t = &layerTotals{}
		r.totals[name] = t
	}
	return t
}

// begin opens a span, or returns nil outside timed phases. The sim
// clock is read before taking the lock and the host clock after it, so
// neither includes the recorder's own wait.
func (s *seam) begin(op string) *span {
	if !s.rec.on.Load() {
		return nil
	}
	sim := s.env.Now()
	r := s.rec
	r.mu.Lock()
	r.nextID++
	sp := &span{seam: s, op: op, id: r.nextID, req: r.nextID, simStart: sim}
	if r.linked && len(r.stack) > 0 {
		sp.parent = r.stack[len(r.stack)-1]
		sp.req = sp.parent.req
	}
	if r.linked {
		r.stack = append(r.stack, sp)
	}
	sp.hostStart = time.Since(r.epoch)
	r.mu.Unlock()
	return sp
}

// end closes sp, crediting bytes moved through the seam.
func (s *seam) end(sp *span, bytes int) {
	if sp == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	host := time.Since(r.epoch) - sp.hostStart
	sim := s.env.Now() - sp.simStart
	if r.linked {
		for i := len(r.stack) - 1; i >= 0; i-- {
			if r.stack[i] == sp {
				r.stack = append(r.stack[:i], r.stack[i+1:]...)
				break
			}
		}
	}
	if p := sp.parent; p != nil {
		p.childHost += host
		if p.seam.env == s.env {
			p.childSim += sim
		}
	}
	if s.busy != "" {
		b := r.layer(s.busy)
		b.calls++
		b.bytes += int64(bytes)
		b.host += host
		b.sim += sim
	}
	own := r.layer(s.self)
	own.selfHost += host - sp.childHost
	own.selfSim += sim - sp.childSim
	r.spans++
	if len(r.kept) < maxKeptSpans {
		r.kept = append(r.kept, r.event(sp, host, sim))
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

func (r *recorder) event(sp *span, host, sim time.Duration) event {
	s := sp.seam
	cat := s.busy
	if cat == "" {
		cat = s.self
	}
	var parent int64
	if sp.parent != nil {
		parent = sp.parent.id
	}
	// Linked spans nest, so one row shows each call chain; unlinked
	// spans overlap, so each layer gets its own row.
	tid := 1
	if !r.linked {
		tid = r.tids[cat]
		if tid == 0 {
			tid = len(r.tids) + 1
			r.tids[cat] = tid
		}
	}
	return event{
		Name: cat + "." + sp.op,
		Cat:  cat,
		Ph:   "X",
		Ts:   float64(sp.hostStart) / 1e3,
		Dur:  float64(host) / 1e3,
		Pid:  1,
		Tid:  tid,
		Args: eventArgs{
			ID:         sp.id,
			Parent:     parent,
			Req:        sp.req,
			SelfLayer:  s.self,
			SimStartNs: int64(sp.simStart),
			SimDurNs:   int64(sim),
		},
	}
}

// writeChrome writes the retained spans as a Chrome trace-event file,
// which chrome://tracing, Perfetto and speedscope open directly.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.SliceStable(r.kept, func(i, j int) bool { return r.kept[i].Ts < r.kept[j].Ts })
	doc := map[string]any{
		"traceEvents":     r.kept,
		"displayTimeUnit": "ns",
		"otherData": map[string]any{
			"spans":   r.spans,
			"dropped": r.dropped,
			"linked":  r.linked,
		},
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
