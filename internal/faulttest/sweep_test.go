package faulttest

import (
	"fmt"
	"testing"

	"betrfs/internal/blockdev"
)

// TestSeededFaultPlanSweep closes the ROADMAP faulttest gap: the
// multi-client fault storm of TestConcurrentClientsUnderFaultPlan, but
// swept across several FaultPlan seeds so the assertion covers fault
// timings the single fixed seed never exercises (run under -race by
// `make race`). Each seed drives 4 client goroutines against one
// concurrently-configured betrfs-v0.6 mount while transient read and
// write faults fire underneath; the contract per seed is the same:
// errno-class errors only, every injected fault absorbed by retry, no
// degradation, and every fsynced survivor reads back intact.
func TestSeededFaultPlanSweep(t *testing.T) {
	seeds := []uint64{7, 23, 51, 97}
	if testing.Short() {
		seeds = seeds[:2]
	}
	const (
		clients   = 4
		opsPerCli = 32
	)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plan := blockdev.FaultPlan{
				Seed:                 seed,
				TransientReadProb:    0.03,
				TransientWriteProb:   0.03,
				TransientPersistence: 2,
			}
			pol := blockdev.DefaultRetryPolicy()
			pol.MaxAttempts = 6
			sys, err := BuildConcurrent("betrfs-v0.6", seed, DefaultScale, plan, pol, 2)
			if err != nil {
				t.Fatalf("build under fault plan: %v", err)
			}
			m := sys.Mount

			type survivor struct {
				path string
				idx  int
				size int
			}
			okFiles := make([][]survivor, clients)
			badErr := make([]error, clients)
			done := make(chan int, clients)
			for c := 0; c < clients; c++ {
				go func(c int) {
					defer func() { done <- c }()
					dir := fmt.Sprintf("cli%d", c)
					if err := m.MkdirAll(dir); err != nil && !wireErrOK(err) {
						badErr[c] = fmt.Errorf("mkdir %s: %w", dir, err)
						return
					}
					for i := 0; i < opsPerCli; i++ {
						path := fmt.Sprintf("%s/f%04d", dir, i)
						f, err := m.Create(path)
						if err != nil {
							if !wireErrOK(err) {
								badErr[c] = fmt.Errorf("create %s: %w", path, err)
								return
							}
							continue
						}
						size := 512 + (c*opsPerCli+i)*37%4096
						_, werr := f.Write(FileContent(i, size))
						serr := f.Fsync()
						f.Close()
						if !wireErrOK(werr) || !wireErrOK(serr) {
							badErr[c] = fmt.Errorf("write/fsync %s: %v / %v", path, werr, serr)
							return
						}
						if werr == nil && serr == nil {
							okFiles[c] = append(okFiles[c], survivor{path, i, size})
						}
					}
				}(c)
			}
			for i := 0; i < clients; i++ {
				<-done
			}
			for c, err := range badErr {
				if err != nil {
					t.Fatalf("client %d broke the error contract: %v", c, err)
				}
			}
			if inj := sys.Counter("io.fault.read") + sys.Counter("io.fault.write"); inj == 0 {
				t.Fatalf("seed %d injected no faults; sweep is vacuous", seed)
			}
			if errs := sys.Counter("io.error.read") + sys.Counter("io.error.write") + sys.Counter("io.error.flush"); errs != 0 {
				t.Fatalf("%d commands exhausted retries under a retry-coverable plan", errs)
			}
			if err := m.Degraded(); err != nil {
				t.Fatalf("mount degraded under transient-only faults: %v", err)
			}
			for c := range okFiles {
				for _, s := range okFiles[c] {
					f, err := m.Open(s.path)
					if err != nil {
						t.Fatalf("open fsynced survivor %s: %v", s.path, err)
					}
					buf := make([]byte, s.size)
					if _, err := f.ReadAt(buf, 0); err != nil {
						t.Fatalf("read fsynced survivor %s: %v", s.path, err)
					}
					want := FileContent(s.idx, s.size)
					for j := range buf {
						if buf[j] != want[j] {
							t.Fatalf("%s byte %d = %#x, want %#x", s.path, j, buf[j], want[j])
						}
					}
					f.Close()
				}
			}
		})
	}
}
