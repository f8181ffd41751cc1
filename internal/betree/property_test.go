package betree

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
)

// model is a reference implementation: a plain sorted map.
type model struct {
	m map[string][]byte
}

func newModel() *model { return &model{m: make(map[string][]byte)} }

func (md *model) put(k string, v []byte) { md.m[k] = append([]byte{}, v...) }
func (md *model) del(k string)           { delete(md.m, k) }
func (md *model) delRange(lo, hi string) {
	for k := range md.m {
		if k >= lo && k < hi {
			delete(md.m, k)
		}
	}
}
func (md *model) update(k string, off int, patch []byte) {
	v := md.m[k]
	need := off + len(patch)
	if need > len(v) {
		nv := make([]byte, need)
		copy(nv, v)
		v = nv
	}
	copy(v[off:], patch)
	md.m[k] = v
}
func (md *model) sortedKeys() []string {
	out := make([]string, 0, len(md.m))
	for k := range md.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRandomOpsAgainstModel drives long operation sequences against both
// the Bε-tree and the model, verifying point queries, full scans, and
// survival across checkpoints and reopens. The inputs are three seeded
// random op mixes plus one ascending insert-then-delete-all sequence, the
// rm -rf shape whose deletes land at the front of their basements.
func TestRandomOpsAgainstModel(t *testing.T) {
	type input struct {
		name string
		seed uint64
		ops  func(t *testing.T, s *Store, tr *Tree, md *model, rnd *sim.Rand)
	}
	inputs := []input{
		{"seed=3", 3, randomOps},
		{"seed=17", 17, randomOps},
		{"seed=99", 99, randomOps},
		{"ascending", 5, ascendingInsertDeleteAll},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			env := sim.NewEnv(in.seed)
			dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
			backend, berr := sfl.NewDefault(env, dev)
			if berr != nil {
				panic(berr)
			}
			cfg := DefaultConfig()
			cfg.NodeSize = 32 << 10
			cfg.BasementSize = 2 << 10
			cfg.Fanout = 6
			cfg.CacheBytes = 256 << 10 // tiny: force eviction traffic
			alloc := kmem.New(env, true)
			s, err := Open(env, alloc, cfg, backend)
			if err != nil {
				t.Fatal(err)
			}
			tr := s.Meta()
			md := newModel()
			in.ops(t, s, tr, md, sim.NewRand(in.seed))
			verifyAgainstModel(t, tr, md)

			// Survive a clean reopen.
			s.Checkpoint()
			s2, err := Open(env, alloc, cfg, backend)
			if err != nil {
				t.Fatal(err)
			}
			verifyAgainstModel(t, s2.Meta(), md)
		})
	}
}

// randomOps is a seeded mix of inserts, point and range deletes, blind
// updates, point queries and checkpoints over 1 600 keys in 4 directories.
func randomOps(t *testing.T, s *Store, tr *Tree, md *model, rnd *sim.Rand) {
	key := func() string {
		return fmt.Sprintf("p%d/f%04d", rnd.Intn(4), rnd.Intn(400))
	}
	const ops = 6000
	for i := 0; i < ops; i++ {
		switch rnd.Intn(10) {
		case 0, 1, 2, 3, 4: // insert
			k := key()
			v := bytes.Repeat([]byte{byte(rnd.Intn(256))}, 8+rnd.Intn(120))
			tr.Put([]byte(k), v, LogAuto)
			md.put(k, v)
		case 5: // delete
			k := key()
			tr.Delete([]byte(k), LogAuto)
			md.del(k)
		case 6: // range delete of one directory (raw slash keys,
			// so the subtree range is ["p/", "p0") in byte order)
			d := fmt.Sprintf("p%d", rnd.Intn(4))
			tr.DeleteRange([]byte(d+"/"), []byte(d+"0"), LogAuto)
			md.delRange(d+"/", d+"0")
		case 7: // blind update (absent keys materialize zeros)
			k := key()
			off := rnd.Intn(64)
			patch := []byte{byte(i)}
			tr.Update([]byte(k), off, patch, LogAuto)
			md.update(k, off, patch)
		case 8: // point query
			k := key()
			got, ok, _ := tr.Get([]byte(k))
			want, wok := md.m[k]
			if ok != wok || (ok && !bytes.Equal(got, want)) {
				t.Fatalf("op %d: Get(%q) = (%v,%v), want (%v,%v)", i, k, got, ok, want, wok)
			}
		case 9: // checkpoint sometimes
			if rnd.Intn(4) == 0 {
				s.Checkpoint()
			}
		}
	}
}

// ascendingInsertDeleteAll inserts keys in ascending order, then removes
// every one in the same order: point deletes for the first three quarters
// and 4-key range deletes for the rest, checking the tree against the
// model halfway and across a checkpoint.
func ascendingInsertDeleteAll(t *testing.T, s *Store, tr *Tree, md *model, rnd *sim.Rand) {
	const n = 1200
	key := func(i int) string { return fmt.Sprintf("p0/f%04d", i) }
	for i := 0; i < n; i++ {
		v := bytes.Repeat([]byte{byte(rnd.Intn(256))}, 8+rnd.Intn(24))
		tr.Put([]byte(key(i)), v, LogAuto)
		md.put(key(i), v)
	}
	verifyAgainstModel(t, tr, md)
	i := 0
	for ; i < 3*n/4; i++ {
		tr.Delete([]byte(key(i)), LogAuto)
		md.del(key(i))
		if _, ok, _ := tr.Get([]byte(key(i))); ok {
			t.Fatalf("Get(%q) found a deleted key", key(i))
		}
		if i == n/2 {
			verifyAgainstModel(t, tr, md)
			s.Checkpoint()
		}
	}
	for ; i < n; i += 4 {
		tr.DeleteRange([]byte(key(i)), []byte(key(i+4)), LogAuto)
		md.delRange(key(i), key(i+4))
	}
	if len(md.m) != 0 {
		t.Fatalf("model holds %d keys after deleting all", len(md.m))
	}
}

func verifyAgainstModel(t *testing.T, tr *Tree, md *model) {
	t.Helper()
	// Full scan must match the model's sorted contents. The model's
	// string order equals byte order because keys are ASCII.
	want := md.sortedKeys()
	// Model uses raw "p0/f001" keys; the tree stores the same bytes, so
	// path-encoding differences don't apply here (keys contain '/', which
	// is fine for the tree: it treats keys as opaque bytes).
	var got []string
	tr.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		if want := md.m[string(k)]; !bytes.Equal(v, want) {
			t.Fatalf("scan value mismatch at %q", k)
		}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan found %d keys, model has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan key %d = %q, model %q", i, got[i], want[i])
		}
	}
}

// TestRandomUpdatesAgainstModel drives blind updates with exact model
// semantics.
func TestRandomUpdatesAgainstModel(t *testing.T) {
	env := sim.NewEnv(5)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		panic(berr)
	}
	cfg := DefaultConfig()
	cfg.NodeSize = 32 << 10
	cfg.BasementSize = 2 << 10
	cfg.CacheBytes = 1 << 20
	s, err := Open(env, kmem.New(env, true), cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Data()
	md := newModel()
	rnd := sim.NewRand(5)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("f%03d", rnd.Intn(50))
		if rnd.Intn(3) == 0 {
			v := bytes.Repeat([]byte{byte(i)}, 32+rnd.Intn(200))
			tr.Put([]byte(k), v, LogAuto)
			md.put(k, v)
		} else {
			off := rnd.Intn(256)
			patch := bytes.Repeat([]byte{byte(i * 3)}, 1+rnd.Intn(16))
			tr.Update([]byte(k), off, patch, LogAuto)
			md.update(k, off, patch)
		}
		if i%500 == 0 {
			s.Checkpoint()
		}
	}
	for k, want := range md.m {
		got, ok, _ := tr.Get([]byte(k))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) diverged from model (ok=%v len=%d want %d)", k, ok, len(got), len(want))
		}
	}
}

// TestCrashInjection cuts the device at random points in the unflushed
// write stream and verifies the store recovers to a state consistent with
// the synced prefix of operations.
func TestCrashInjection(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			env := sim.NewEnv(seed)
			dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
			dev.EnableCrashTracking()
			backend, berr := sfl.NewDefault(env, dev)
			if berr != nil {
				panic(berr)
			}
			cfg := DefaultConfig()
			cfg.NodeSize = 32 << 10
			cfg.CacheBytes = 1 << 20
			alloc := kmem.New(env, true)
			s, err := Open(env, alloc, cfg, backend)
			if err != nil {
				t.Fatal(err)
			}
			tr := s.Meta()
			rnd := sim.NewRand(seed)

			// Synced phase: these must all survive.
			synced := map[string][]byte{}
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("s/f%04d", i)
				v := []byte(fmt.Sprintf("v%d", i))
				tr.Put([]byte(k), v, LogAuto)
				synced[k] = v
			}
			s.SyncLog()

			// Unsynced phase: may or may not survive, but recovery must
			// be a consistent prefix (no partial values, no corruption).
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("u/f%04d", i)
				tr.Put([]byte(k), []byte("unsynced"), LogAuto)
			}

			// Crash with a random fraction of unflushed writes surviving.
			keep := 0
			if n := dev.UnflushedWrites(); n > 0 {
				keep = rnd.Intn(n + 1)
			}
			dev.Crash(keep)

			s2, err := Open(env, alloc, cfg, backend)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			tr2 := s2.Meta()
			for k, v := range synced {
				got, ok, _ := tr2.Get([]byte(k))
				if !ok || !bytes.Equal(got, v) {
					t.Fatalf("synced key %q lost or corrupted after crash", k)
				}
			}
			// Unsynced keys must be a prefix: if u/fN survived, all
			// u/fM with M<N survived (log replay is ordered).
			last := -1
			holes := false
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("u/f%04d", i)
				if _, ok, _ := tr2.Get([]byte(k)); ok {
					if holes {
						t.Fatalf("unsynced key %q survived after a hole (not prefix-consistent)", k)
					}
					last = i
				} else {
					holes = true
				}
			}
			_ = last
		})
	}
}

// TestCrashDuringCheckpoint crashes mid-checkpoint and verifies the
// previous checkpoint still recovers.
func TestCrashDuringCheckpoint(t *testing.T) {
	env := sim.NewEnv(9)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		panic(berr)
	}
	cfg := DefaultConfig()
	cfg.NodeSize = 32 << 10
	cfg.CacheBytes = 4 << 20
	alloc := kmem.New(env, true)
	s, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Meta().Put(k(i), v(i, 64), LogAuto)
	}
	s.Checkpoint() // durable state A
	for i := 1000; i < 2000; i++ {
		s.Meta().Put(k(i), v(i, 64), LogAuto)
	}
	// Begin tracking now: everything from here on may be torn.
	dev.EnableCrashTracking()
	s.Checkpoint()
	// Tear the checkpoint: drop ALL writes since tracking began,
	// including the new superblock.
	dev.Crash(0)
	s2, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatalf("recovery after torn checkpoint: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if _, ok, _ := s2.Meta().Get(k(i)); !ok {
			t.Fatalf("state-A key %d lost after torn checkpoint", i)
		}
	}
}
