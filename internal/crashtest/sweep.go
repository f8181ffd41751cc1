package crashtest

import (
	"fmt"

	"betrfs/internal/blockdev"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// CrashKind selects how the unflushed-write stream is cut.
type CrashKind int

const (
	// CrashPrefix keeps the first Keep unflushed writes (classic
	// volatile-cache loss).
	CrashPrefix CrashKind = iota
	// CrashTorn keeps Keep writes plus a byte-prefix of write Keep —
	// a write torn mid-sector by power loss.
	CrashTorn
	// CrashSubset keeps a seeded-random subset of unflushed writes,
	// modeling a cache that drains out of order.
	CrashSubset
)

// CrashSpec describes one crash point. Keep values beyond the trial's
// actual unflushed-write count are clamped: Go map iteration makes the
// count vary slightly between otherwise identical runs, so each trial
// interprets the spec against its own stream.
type CrashSpec struct {
	Kind CrashKind
	Keep int // CrashPrefix/CrashTorn: writes kept intact
	// TornNum/TornDen give the fraction of the torn write persisted.
	TornNum, TornDen int
	Seed             uint64 // CrashSubset: survival sampling seed
	KeepPct          int    // CrashSubset: per-write survival probability
}

// String renders a stable description for reports.
func (cs CrashSpec) String() string {
	switch cs.Kind {
	case CrashTorn:
		return fmt.Sprintf("torn keep=%d frac=%d/%d", cs.Keep, cs.TornNum, cs.TornDen)
	case CrashSubset:
		return fmt.Sprintf("subset seed=%d keep=%d%%", cs.Seed, cs.KeepPct)
	default:
		return fmt.Sprintf("prefix keep=%d", cs.Keep)
	}
}

// apply crashes dev according to the spec, clamped to its actual
// unflushed-write count.
func (cs CrashSpec) apply(dev *blockdev.Dev) {
	n := dev.UnflushedWrites()
	switch cs.Kind {
	case CrashPrefix:
		k := cs.Keep
		if k > n {
			k = n
		}
		dev.Crash(k)
	case CrashTorn:
		if cs.Keep >= n {
			dev.Crash(n)
			return
		}
		torn := dev.UnflushedWriteLen(cs.Keep) * cs.TornNum / cs.TornDen
		dev.CrashTorn(cs.Keep, torn)
	case CrashSubset:
		rnd := sim.NewRand(cs.Seed)
		survive := make([]bool, n)
		for i := range survive {
			survive[i] = rnd.Intn(100) < cs.KeepPct
		}
		dev.CrashSubset(survive)
	}
}

// PrefixSpecs enumerates every prefix crash point 0..n.
func PrefixSpecs(n int) []CrashSpec {
	out := make([]CrashSpec, 0, n+1)
	for k := 0; k <= n; k++ {
		out = append(out, CrashSpec{Kind: CrashPrefix, Keep: k})
	}
	return out
}

// TornSpecs enumerates torn-write crash points: each write boundary
// 0..n-1, torn at each of the given fractions (numerator over denom).
func TornSpecs(n int, fracNums []int, fracDen int) []CrashSpec {
	var out []CrashSpec
	for k := 0; k < n; k++ {
		for _, num := range fracNums {
			out = append(out, CrashSpec{Kind: CrashTorn, Keep: k, TornNum: num, TornDen: fracDen})
		}
	}
	return out
}

// SubsetSpecs samples count seeded-random reordered-persistence crashes.
func SubsetSpecs(count int, baseSeed uint64, keepPct int) []CrashSpec {
	out := make([]CrashSpec, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, CrashSpec{Kind: CrashSubset, Seed: baseSeed + uint64(i), KeepPct: keepPct})
	}
	return out
}

func mountConfig() vfs.Config {
	cfg := vfs.DefaultConfig()
	cfg.CacheBytes = 128 << 20
	return cfg
}

// guard runs fn, converting a panic into an error. Recovery and
// traversal of a crashed image must never panic; the harness records a
// panic as an oracle violation rather than aborting the sweep.
func guard(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// ProbeUnflushed runs the workload once without crashing and reports the
// unflushed-write count, for sizing an exhaustive enumeration. The count
// varies slightly between runs (map iteration order); specs are clamped
// per trial.
func ProbeUnflushed(sys System, steps []Step) int {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	fs, err := sys.Build(env, dev)
	if err != nil {
		panic(fmt.Sprintf("crashtest: %s build: %v", sys.Name, err))
	}
	m := vfs.NewMount(env, fs, mountConfig())
	dev.EnableCrashTracking()
	for _, s := range steps {
		applyStep(m, s)
	}
	m.Writeback()
	if sys.Push != nil {
		sys.Push(fs)
	}
	return dev.UnflushedWrites()
}

// RunTrial formats sys on a fresh device, applies the workload, crashes
// at spec, recovers, and checks the oracle. Each trial rebuilds from
// scratch so crash points are independent.
func RunTrial(sys System, steps []Step, spec CrashSpec) []Violation {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	fs, err := sys.Build(env, dev)
	if err != nil {
		panic(fmt.Sprintf("crashtest: %s build: %v", sys.Name, err))
	}
	m := vfs.NewMount(env, fs, mountConfig())
	mo := newModel()
	dev.EnableCrashTracking()
	for _, s := range steps {
		applyStep(m, s)
		mo.apply(s)
	}
	// Push dirty cache state to the device without a flush: the crash
	// then cuts an in-flight writeback stream rather than an empty one.
	m.Writeback()
	if sys.Push != nil {
		sys.Push(fs)
	}
	spec.apply(dev)

	var m2 *vfs.Mount
	if err := guard(func() {
		fs2, rerr := sys.Recover(env, dev)
		if rerr != nil {
			panic(rerr)
		}
		m2 = vfs.NewMount(env, fs2, mountConfig())
	}); err != nil {
		return []Violation{{System: sys.Name, Spec: spec.String(), Detail: "recovery failed: " + err.Error()}}
	}

	var vs []Violation
	if err := guard(func() { vs = mo.check(m2, sys.Name, spec.String()) }); err != nil {
		vs = append(vs, Violation{System: sys.Name, Spec: spec.String(), Detail: "post-recovery check: " + err.Error()})
	}
	return vs
}

// Outcome summarises a sweep.
type Outcome struct {
	Trials     int
	Violations []Violation
}

// Sweep runs every spec as an independent trial.
func Sweep(sys System, steps []Step, specs []CrashSpec) Outcome {
	out := Outcome{Trials: len(specs)}
	for _, spec := range specs {
		out.Violations = append(out.Violations, RunTrial(sys, steps, spec)...)
	}
	return out
}

// RemoveHeavyWorkload builds the discard-stress workload: a durable
// population, then rounds of interleaved remove-and-replace churn each
// sealed with a full sync, then an unsynced mutation tail. Every sync
// boundary is a checkpoint that frees the removed files' space, so by
// the later rounds the file systems are issuing discards for space freed
// one or two checkpoints earlier — a crash cut anywhere in the write
// stream lands between some free and its deferred discard, which is
// exactly the window where premature trimming would zero extents an
// older superblock generation still references. Removed names are never
// reused (replacements get fresh names), matching the workload rule the
// oracle assumes everywhere else.
func RemoveHeavyWorkload(seed uint64, nFiles, rounds int) []Step {
	rnd := sim.NewRand(seed)
	var steps []Step
	steps = append(steps, Step{Op: OpMkdir, Path: "d"})
	data := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(1 + rnd.Intn(255))
		}
		return b
	}
	var live []string
	next := 0
	create := func(n int) {
		p := fmt.Sprintf("d/f%03d", next)
		next++
		steps = append(steps, Step{Op: OpWrite, Path: p, Data: data(n)})
		live = append(live, p)
	}
	for i := 0; i < nFiles; i++ {
		create(512 + rnd.Intn(4096))
	}
	steps = append(steps, Step{Op: OpSync})
	remove := func() {
		j := rnd.Intn(len(live))
		steps = append(steps, Step{Op: OpRemove, Path: live[j]})
		live = append(live[:j], live[j+1:]...)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < nFiles/2; i++ {
			remove()
			create(512 + rnd.Intn(4096))
		}
		steps = append(steps, Step{Op: OpSync})
	}
	// Unsynced tail: removes and new files whose fate the crash decides.
	for i := 0; i < nFiles/2; i++ {
		remove()
		if i%2 == 0 {
			create(256 + rnd.Intn(2048))
		}
	}
	return steps
}

// StandardWorkload builds the deterministic mixed workload used by the
// smoke sweeps: a durable (synced) population phase, then an unsynced
// mutation phase of overwrites, appends, new files, removes and fsyncs.
// All payload bytes are non-zero so the oracle's zero-is-unpersisted
// rule cannot mask lost writes.
func StandardWorkload(seed uint64, nFiles int) []Step {
	rnd := sim.NewRand(seed)
	var steps []Step
	dirs := []string{"d0", "d0/sub", "d1"}
	for _, d := range dirs {
		steps = append(steps, Step{Op: OpMkdir, Path: d})
	}
	var live []string
	data := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(1 + rnd.Intn(255))
		}
		return b
	}
	for i := 0; i < nFiles; i++ {
		p := fmt.Sprintf("%s/f%03d", dirs[i%len(dirs)], i)
		steps = append(steps, Step{Op: OpWrite, Path: p, Data: data(512 + rnd.Intn(8192))})
		live = append(live, p)
	}
	steps = append(steps, Step{Op: OpSync})

	for i := 0; i < nFiles; i++ {
		switch rnd.Intn(6) {
		case 0: // overwrite a prefix of an existing file
			p := live[rnd.Intn(len(live))]
			steps = append(steps, Step{Op: OpWrite, Path: p, Data: data(256 + rnd.Intn(2048))})
		case 1: // overwrite at an interior offset
			p := live[rnd.Intn(len(live))]
			steps = append(steps, Step{Op: OpWrite, Path: p, Off: int64(rnd.Intn(4096)), Data: data(128 + rnd.Intn(1024))})
		case 2: // append-ish extension well past the old size
			p := live[rnd.Intn(len(live))]
			steps = append(steps, Step{Op: OpWrite, Path: p, Off: int64(4096 + rnd.Intn(8192)), Data: data(256 + rnd.Intn(2048))})
		case 3: // brand-new volatile file
			p := fmt.Sprintf("%s/v%03d", dirs[rnd.Intn(len(dirs))], i)
			steps = append(steps, Step{Op: OpWrite, Path: p, Data: data(256 + rnd.Intn(4096))})
			live = append(live, p)
		case 4: // unsynced remove; the name is never reused
			if len(live) > 1 {
				j := rnd.Intn(len(live))
				steps = append(steps, Step{Op: OpRemove, Path: live[j]})
				live = append(live[:j], live[j+1:]...)
			}
		case 5: // fsync one live file
			steps = append(steps, Step{Op: OpFsync, Path: live[rnd.Intn(len(live))]})
		}
	}
	return steps
}
