package remote_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/blockstore"
	"betrfs/internal/blockstore/local"
	"betrfs/internal/blockstore/remote"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/ioerr"
	"betrfs/internal/registry"
	"betrfs/internal/sim"
)

// serveStore exports st as the block share "blk0" behind a mount-less
// server and returns a connected wire client plus the opened remote
// store.
func serveStore(t *testing.T, env *sim.Env, st blockstore.Store) (*remote.Store, func()) {
	t.Helper()
	reg := registry.New()
	reg.AddStore("blk0", env, st)
	cfg := fsserve.DefaultConfig()
	cfg.Registry = reg
	srv := fsserve.New(env, nil, cfg)
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	cli := fsrpc.NewClientOpts(cliEnd, fsrpc.Options{})
	rst, err := remote.Open(cli, "blk0")
	if err != nil {
		t.Fatalf("open remote store: %v", err)
	}
	return rst, func() { cli.Close(); srv.Shutdown() }
}

// TestRemoteLocalEquivalence applies one seeded op sequence to a local
// store and to an identical device behind the wire, then requires the
// two device images to be byte-identical: the remote backend must be
// indistinguishable from the local one at the media level.
func TestRemoteLocalEquivalence(t *testing.T) {
	const scale = 2048 // small device so the full-image diff is cheap
	envL := sim.NewEnv(1)
	devL := blockdev.New(envL, blockdev.SamsungEVO860().Scale(scale))
	loc := local.New(devL)

	envR := sim.NewEnv(1)
	devR := blockdev.New(envR, blockdev.SamsungEVO860().Scale(scale))
	rst, shutdown := serveStore(t, envR, local.New(devR))
	defer shutdown()

	if rst.Size() != loc.Size() {
		t.Fatalf("size over the wire = %d, local %d", rst.Size(), loc.Size())
	}

	// One seeded sequence of block-aligned writes, discards, flushes, and
	// verifying reads, applied to both stores in lockstep. Includes a
	// multi-chunk transfer (> MaxData) to cover the wire chunking path.
	rng := rand.New(rand.NewSource(42))
	size := loc.Size()
	blocks := size / blockdev.BlockSize
	apply := func(op func(st blockstore.Store) error) {
		t.Helper()
		errL := op(loc)
		errR := op(rst)
		if (errL == nil) != (errR == nil) {
			t.Fatalf("local/remote diverged: local=%v remote=%v", errL, errR)
		}
	}
	for i := 0; i < 200; i++ {
		off := (rng.Int63n(blocks - 80)) * blockdev.BlockSize
		switch rng.Intn(5) {
		case 0, 1: // write 1–8 blocks of op-dependent bytes
			n := (1 + rng.Intn(8)) * blockdev.BlockSize
			payload := bytes.Repeat([]byte{byte(i)}, n)
			apply(func(st blockstore.Store) error { return st.WriteAt(payload, off) })
		case 2: // discard 1–16 blocks
			n := int64(1+rng.Intn(16)) * blockdev.BlockSize
			apply(func(st blockstore.Store) error { return st.Discard(off, n) })
		case 3:
			apply(func(st blockstore.Store) error { return st.Flush() })
		case 4: // verifying read
			n := (1 + rng.Intn(4)) * blockdev.BlockSize
			bl, br := make([]byte, n), make([]byte, n)
			if err := loc.ReadAt(bl, off); err != nil {
				t.Fatalf("local read: %v", err)
			}
			if err := rst.ReadAt(br, off); err != nil {
				t.Fatalf("remote read: %v", err)
			}
			if !bytes.Equal(bl, br) {
				t.Fatalf("op %d: read divergence at %d", i, off)
			}
		}
	}
	// A transfer larger than one wire frame's data cap must chunk
	// transparently.
	big := bytes.Repeat([]byte{0xcd}, fsrpc.MaxData+3*blockdev.BlockSize)
	apply(func(st blockstore.Store) error { return st.WriteAt(big, 0) })
	got := make([]byte, len(big))
	if err := rst.ReadAt(got, 0); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("multi-chunk read back: %v", err)
	}

	// Byte-identical device images.
	if devL.Stats().BytesDiscarded != devR.Stats().BytesDiscarded {
		t.Fatalf("TRIM ledgers diverged: local %d, remote %d",
			devL.Stats().BytesDiscarded, devR.Stats().BytesDiscarded)
	}
	const chunk = 1 << 20
	bl, br := make([]byte, chunk), make([]byte, chunk)
	for off := int64(0); off < size; off += chunk {
		n := chunk
		if size-off < chunk {
			n = int(size - off)
		}
		if err := devL.ReadAt(bl[:n], off); err != nil {
			t.Fatal(err)
		}
		if err := devR.ReadAt(br[:n], off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bl[:n], br[:n]) {
			t.Fatalf("device images diverge in [%d, %d)", off, off+int64(n))
		}
	}
}

// TestRemoteErrorSurfacing requires device errors to classify
// identically through the wire: EIO from an unreadable range and ENOSPC
// from a full backend reach the remote caller as the same sentinels a
// local caller sees.
func TestRemoteErrorSurfacing(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(2048))
	// A grown defect: reads overlapping it fail permanently with EIO.
	faulted := blockdev.NewFault(env, dev, blockdev.FaultPlan{
		BadSectors: []blockdev.Range{{Off: 0, Len: blockdev.BlockSize}},
	})
	loc := local.New(faulted)
	rst, shutdown := serveStore(t, env, loc)
	defer shutdown()

	buf := make([]byte, blockdev.BlockSize)
	errLocal := loc.ReadAt(buf, 0)
	errRemote := rst.ReadAt(buf, 0)
	if !errors.Is(errLocal, ioerr.ErrIO) {
		t.Fatalf("local faulted read = %v, want EIO", errLocal)
	}
	if !errors.Is(errRemote, ioerr.ErrIO) {
		t.Fatalf("remote faulted read = %v, want EIO", errRemote)
	}
	if fsrpc.StatusOf(errRemote) != fsrpc.StatusOf(errLocal) {
		t.Fatalf("status drift: local %v, remote %v",
			fsrpc.StatusOf(errLocal), fsrpc.StatusOf(errRemote))
	}

	env2 := sim.NewEnv(1)
	dev2 := blockdev.New(env2, blockdev.SamsungEVO860().Scale(2048))
	full := nospace{local.New(dev2)}
	rst2, shutdown2 := serveStore(t, env2, full)
	defer shutdown2()
	errLocal = full.WriteAt(buf, 0)
	errRemote = rst2.WriteAt(buf, 0)
	if !errors.Is(errLocal, ioerr.ErrNoSpace) || !errors.Is(errRemote, ioerr.ErrNoSpace) {
		t.Fatalf("ENOSPC drift: local=%v remote=%v", errLocal, errRemote)
	}
}

type nospace struct{ blockstore.Store }

func (nospace) WriteAt(p []byte, off int64) error {
	return fmt.Errorf("backend full: %w", ioerr.ErrNoSpace)
}
