package faulttest

import (
	"errors"
	"fmt"
	"testing"

	"betrfs/internal/betree"
	"betrfs/internal/blockdev"
	"betrfs/internal/vfs"
)

// populateCheckpointed builds a v0.6 system, runs a synced workload, and
// checkpoints the store so every node is durable and scrub-visible. The
// clean scrub reports are returned for targeted fault injection.
func populateCheckpointed(t *testing.T, seed uint64, files int, tune func(*betree.Config)) (*System, map[string]int, []betree.ScrubReport) {
	t.Helper()
	sys, err := BuildTuned("betrfs-v0.6", seed, DefaultScale, blockdev.FaultPlan{Seed: seed}, blockdev.DefaultRetryPolicy(), tune)
	if err != nil {
		t.Fatal(err)
	}
	live, werr := Workload(sys.Mount, seed^0x5eed, files)
	if werr != nil {
		t.Fatalf("fault-free workload failed: %v", werr)
	}
	if err := sys.Mount.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Betr.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	clean := sys.Betr.Store().Scrub()
	for _, rep := range clean {
		if rep.Err != nil {
			t.Fatalf("pre-injection scrub dirty: %s node %d: %v", rep.Tree, rep.ID, rep.Err)
		}
	}
	return sys, live, clean
}

// TestScrubRepairRelocatesBadSector is the end-to-end self-healing demo
// (ISSUE acceptance): a media defect grows under a live mount's durable
// node extent, the online scrub-repair hook relocates the image to
// fresh space off the node's resident cache copy, the old extent
// retires to the grown-defect list, every read keeps succeeding, the
// mount never degrades, and a follow-up scrub comes back clean — the
// betrfsck exit-0 condition.
func TestScrubRepairRelocatesBadSector(t *testing.T) {
	sys, live, clean := populateCheckpointed(t, 21, 40, nil)
	m := sys.Mount

	// Grow the defect under a data-tree extent: file bytes live there, so
	// an unrepaired defect is guaranteed to break cold read-back.
	var target betree.ScrubReport
	for _, rep := range clean {
		if rep.Tree == "data" {
			target = rep
			break
		}
	}
	if target.Len == 0 {
		t.Fatal("no durable data-tree node to inject under")
	}
	sys.Fault.AddBadRange(sys.SFL.DevOffset(target.Tree, target.Off), target.Len)

	st, err := m.Scrub(true)
	if err != nil {
		t.Fatalf("online scrub-repair: %v", err)
	}
	if st.Bad == 0 || st.Repaired == 0 {
		t.Fatalf("repair saw bad=%d repaired=%d, want both > 0 (injection missed?)", st.Bad, st.Repaired)
	}
	if st.Unrepairable != 0 {
		t.Fatalf("%d nodes unrepairable despite resident cache copies", st.Unrepairable)
	}
	if count, bytes := sys.Betr.Store().DefectStats(); count == 0 || bytes == 0 {
		t.Fatalf("grown-defect list empty after repair (count=%d bytes=%d)", count, bytes)
	}
	if got := sys.Counter("io.defect.grown"); got == 0 {
		t.Fatal("io.defect.grown = 0 after a relocating repair")
	}
	if got := sys.Counter("scrub.repair.node"); got == 0 {
		t.Fatal("scrub.repair.node = 0 after a relocating repair")
	}
	if err := m.Degraded(); err != nil {
		t.Fatalf("mount degraded during self-healing repair: %v", err)
	}

	// Cold read-back must now come off the relocated extents.
	m.DropCaches()
	if err := VerifyFiles(m, live); err != nil {
		t.Fatalf("cold read-back after repair: %v", err)
	}
	// Follow-up scrub clean: the betrfsck -repair exit-0 condition.
	for _, rep := range sys.Betr.Store().Scrub() {
		if rep.Err != nil {
			t.Errorf("post-repair scrub: %s node %d: %v", rep.Tree, rep.ID, rep.Err)
		}
	}
}

// TestBadSectorWithoutRepairStaysBroken is the negative control for the
// sweep above: the identical injection with no repair pass keeps the
// historical behaviour — the scrub reports the node unreadable (the
// betrfsck exit-3 condition) and cold reads surface EIO.
func TestBadSectorWithoutRepairStaysBroken(t *testing.T) {
	sys, live, clean := populateCheckpointed(t, 21, 40, nil)

	var target betree.ScrubReport
	for _, rep := range clean {
		if rep.Tree == "data" {
			target = rep
			break
		}
	}
	if target.Len == 0 {
		t.Fatal("no durable data-tree node to inject under")
	}
	sys.Fault.AddBadRange(sys.SFL.DevOffset(target.Tree, target.Off), target.Len)

	unreadable := 0
	for _, rep := range sys.Betr.Store().Scrub() {
		if rep.Unreadable() {
			unreadable++
		}
	}
	if unreadable == 0 {
		t.Fatal("scrub without repair found no unreadable node; injection missed")
	}
	sys.Mount.DropCaches()
	verr := VerifyFiles(sys.Mount, live)
	if verr == nil {
		t.Fatal("cold reads through a grown defect reported no error without repair")
	}
	if !errors.Is(verr, vfs.ErrIO) {
		t.Fatalf("cold read through defect = %v, want EIO-class", verr)
	}
}

// dataTail returns the end of the highest durable data-tree extent: the
// free tail of the data node file begins there, so with a first-fit
// allocator the next allocation too large for any interior gap lands
// exactly at this offset.
func dataTail(clean []betree.ScrubReport) int64 {
	var tail int64
	for _, rep := range clean {
		if rep.Tree == "data" && rep.Off+rep.Len > tail {
			tail = rep.Off + rep.Len
		}
	}
	return tail
}

// writeBig streams a fresh multi-megabyte file and fsyncs it, forcing
// leaf-node allocations that exceed any interior free-list gap.
func writeBig(m *vfs.Mount, path string, size int) error {
	f, err := m.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(FileContent(77, size)); err != nil {
		return err
	}
	return f.Fsync()
}

// TestWritePathRelocationAbsorbsGrownDefect covers the write half of the
// tentpole: a defect grows over the data file's free tail of a live
// mount, the next node write there fails with a non-transient EIO, and
// the store relocates the image to fresh space instead of latching the
// read-only degradation — the workload never sees the fault.
func TestWritePathRelocationAbsorbsGrownDefect(t *testing.T) {
	sys, _, clean := populateCheckpointed(t, 23, 40, nil)
	m := sys.Mount

	tail := dataTail(clean)
	// One bad page at the tail: whichever node write first allocates from
	// the tail overlaps it and must relocate.
	sys.Fault.AddBadRange(sys.SFL.DevOffset("data", tail), 4096)

	const bigSize = 4 << 20
	if err := writeBig(m, "work/big", bigSize); err != nil {
		t.Fatalf("write into grown defect surfaced %v despite relocation", err)
	}
	if err := m.Sync(); err != nil {
		t.Fatalf("sync after relocation: %v", err)
	}
	if got := sys.Counter("io.defect.relocate.write"); got == 0 {
		t.Fatal("io.defect.relocate.write = 0: no allocation hit the bad page; sweep is vacuous")
	}
	if got := sys.Counter("io.defect.grown"); got == 0 {
		t.Fatal("io.defect.grown = 0 after write-path relocation")
	}
	if err := m.Degraded(); err != nil {
		t.Fatalf("mount degraded despite successful relocation: %v", err)
	}
	if got := sys.Counter("vfs.remount.ro"); got != 0 {
		t.Fatalf("vfs.remount.ro = %d, want 0", got)
	}

	// Everything is durable and intact: checkpoint, cold-verify, scrub.
	if err := sys.Betr.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.DropCaches()
	f, err := m.Open("work/big")
	if err != nil {
		t.Fatalf("open relocated file: %v", err)
	}
	buf := make([]byte, bigSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("cold read of relocated file: %v", err)
	}
	want := FileContent(77, bigSize)
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("relocated file byte %d = %#x, want %#x", i, buf[i], want[i])
		}
	}
	f.Close()
	for _, rep := range sys.Betr.Store().Scrub() {
		if rep.Err != nil {
			t.Errorf("post-relocation scrub: %s node %d: %v", rep.Tree, rep.ID, rep.Err)
		}
	}
}

// TestWritePathRelocationDisabledReproducesEIO is the acceptance
// negative control: with RelocateAttempts=0 the identical grown defect
// reproduces the historical behaviour — the write error surfaces as
// EIO-class at fsync/sync and the mount latches read-only.
func TestWritePathRelocationDisabledReproducesEIO(t *testing.T) {
	sys, _, clean := populateCheckpointed(t, 23, 40, func(cfg *betree.Config) {
		cfg.RelocateAttempts = 0
	})
	m := sys.Mount

	tail := dataTail(clean)
	sys.Fault.AddBadRange(sys.SFL.DevOffset("data", tail), 4096)

	err := writeBig(m, "work/big", 4<<20)
	if err == nil {
		err = m.Sync()
	}
	if err == nil {
		t.Fatal("write into grown defect surfaced no error with relocation disabled")
	}
	if !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("write into defect with relocation off = %v, want EIO-class", err)
	}
	if m.Degraded() == nil {
		t.Fatal("mount did not degrade with relocation disabled")
	}
	if got := sys.Counter("io.defect.relocate.write"); got != 0 {
		t.Fatalf("io.defect.relocate.write = %d with relocation disabled, want 0", got)
	}
}

// TestScrubHookAcrossSystems sweeps the online Mount.Scrub hook over all
// five systems: the baselines decline with ErrNotSupported (scrub is a
// checksummed-store feature), both BetrFS generations report a clean
// non-empty scrub, and a repair pass over a clean store is a no-op.
func TestScrubHookAcrossSystems(t *testing.T) {
	for _, name := range Systems {
		t.Run(name, func(t *testing.T) {
			sys, err := Build(name, 31, DefaultScale, blockdev.FaultPlan{Seed: 31}, blockdev.DefaultRetryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			if _, werr := Workload(sys.Mount, 31, 20); werr != nil {
				t.Fatal(werr)
			}
			if err := sys.Mount.Sync(); err != nil {
				t.Fatal(err)
			}
			st, err := sys.Mount.Scrub(false)
			if sys.Betr == nil {
				if !errors.Is(err, vfs.ErrNotSupported) {
					t.Fatalf("baseline scrub = (%+v, %v), want ErrNotSupported", st, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("online scrub: %v", err)
			}
			if st.Checked == 0 {
				t.Fatal("online scrub checked no nodes after a synced workload")
			}
			if st.Bad != 0 || st.Unrepairable != 0 {
				t.Fatalf("clean store scrub reports bad=%d unrepairable=%d", st.Bad, st.Unrepairable)
			}
			rst, err := sys.Mount.Scrub(true)
			if err != nil {
				t.Fatalf("repair over clean store: %v", err)
			}
			if rst.Bad != 0 || rst.Repaired != 0 {
				t.Fatalf("repair over clean store touched nodes: %+v", rst)
			}
			if count, _ := sys.Betr.Store().DefectStats(); count != 0 {
				t.Fatalf("clean store grew %d defects", count)
			}
		})
	}
}

// TestConcurrentClientsUnderFaultPlan is the seeded multi-client fault
// sweep (run under -race by `make race`): several client goroutines
// hammer one concurrently-configured mount while a transient fault plan
// fires underneath, with periodic online scrub-repair passes mixed in.
// Goroutine interleaving makes exact state nondeterministic, so the
// sweep asserts the error contract: errno-class errors only, no panics,
// no data loss among fsynced survivors, and no spurious degradation
// when every fault is retry-coverable.
func TestConcurrentClientsUnderFaultPlan(t *testing.T) {
	const (
		clients   = 4
		opsPerCli = 40
	)
	plan := blockdev.FaultPlan{
		Seed:                 51,
		TransientReadProb:    0.03,
		TransientWriteProb:   0.03,
		TransientPersistence: 2,
	}
	pol := blockdev.DefaultRetryPolicy()
	pol.MaxAttempts = 6
	for _, name := range Systems {
		t.Run(name, func(t *testing.T) {
			sys, err := BuildConcurrent(name, 51, DefaultScale, plan, pol, 2)
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
						// Mix online scrub passes into the storm: the repair
						// path must coexist with concurrent writers.
						if sys.Betr != nil && i%16 == 8 {
							if _, err := m.Scrub(true); err != nil && !wireErrOK(err) {
								badErr[c] = fmt.Errorf("online scrub: %w", err)
								return
							}
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
				t.Fatal("plan injected no faults; sweep is vacuous")
			}
			if errs := sys.Counter("io.error.read") + sys.Counter("io.error.write") + sys.Counter("io.error.flush"); errs != 0 {
				t.Fatalf("%d commands exhausted retries under a retry-coverable plan", errs)
			}
			if err := m.Degraded(); err != nil {
				t.Fatalf("mount degraded under transient-only faults: %v", err)
			}
			// Every fsynced survivor reads back intact.
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
