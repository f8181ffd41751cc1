package sfl

import (
	"bytes"
	"testing"
	"time"

	"betrfs/internal/blockdev"
	"betrfs/internal/sim"
)

func newSFL(t testing.TB) (*sim.Env, *blockdev.Dev, *SFL) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	s, err := NewDefault(env, dev)
	if err != nil {
		t.Fatal(err)
	}
	return env, dev, s
}

func TestLayoutProportions(t *testing.T) {
	_, dev, s := newSFL(t)
	lay := s.Layout()
	if lay.SuperBytes != 8<<20 {
		t.Fatalf("superblock %d, want 8MiB (Table 2)", lay.SuperBytes)
	}
	total := lay.SuperBytes + lay.LogBytes + lay.MetaBytes + lay.DataBytes
	if total > dev.Size() {
		t.Fatal("layout exceeds device")
	}
	if lay.DataBytes < lay.MetaBytes*5 {
		t.Fatal("data region should dominate (Table 2 proportions)")
	}
}

func TestFilesAreDisjoint(t *testing.T) {
	_, _, s := newSFL(t)
	// Writing a marker at offset 0 of each file must not clobber others.
	names := s.Names()
	if len(names) != 4 {
		t.Fatalf("names=%v", names)
	}
	for i, name := range names {
		buf := []byte{byte(i + 1), 0xbe, 0xef}
		s.File(name).WriteAt(buf, 0)
	}
	for i, name := range names {
		got := make([]byte, 3)
		s.File(name).ReadAt(got, 0)
		if got[0] != byte(i+1) {
			t.Fatalf("file %s clobbered: %v", name, got)
		}
	}
}

func TestDirectIONoCopyCharges(t *testing.T) {
	// write returns the clock advance of a 1 MiB SFL write on an env whose
	// memcpy cost is psPerByte: zero-copy I/O takes the same time at any.
	write := func(psPerByte int64) time.Duration {
		env := sim.NewEnv(1)
		env.Costs.MemcpyPsPerByte = psPerByte
		s, err := NewDefault(env, blockdev.New(env, blockdev.SamsungEVO860().Scale(64)))
		if err != nil {
			t.Fatal(err)
		}
		start := env.Now()
		s.File("data").WriteAt(make([]byte, 1<<20), 0)
		return env.Now() - start
	}
	if write(sim.DefaultCosts().MemcpyPsPerByte) != write(0) {
		t.Fatal("SFL charged a memcpy: it must be zero-copy direct I/O")
	}
}

func TestAsyncIO(t *testing.T) {
	env, _, s := newSFL(t)
	f := s.File("meta")
	data := bytes.Repeat([]byte{0xab}, 256<<10)
	wait := f.SubmitWrite(data, 4096)
	submitTime := env.Now()
	wait()
	if env.Now() < submitTime {
		t.Fatal("time went backwards")
	}
	got := make([]byte, len(data))
	f.ReadAt(got, 4096)
	if !bytes.Equal(got, data) {
		t.Fatal("async write round trip failed")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	_, _, s := newSFL(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds write did not panic")
		}
	}()
	f := s.File("super")
	f.WriteAt(make([]byte, 4096), f.Capacity())
}

func TestUnknownFilePanics(t *testing.T) {
	_, _, s := newSFL(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown file did not panic")
		}
	}()
	s.File("nonexistent")
}
