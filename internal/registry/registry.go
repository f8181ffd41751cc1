// Package registry names the shares one fsserved instance exports
// (DESIGN.md §14.2). A share is either a mount share — a vfs.Mount a
// client ATTACHes to for file-class ops — or a block share — a
// blockstore.Store a client BOPENs for block-class ops, which is how one
// node's file system runs over another node's device. Each share records
// the sim.Env of the machine that hosts it, so a registry can roll every
// hosted machine's metrics into one snapshot without double-counting
// shares that live on the same machine.
package registry

import (
	"sort"
	"sync"

	"betrfs/internal/blockstore"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// Registry is a named-share table. It is safe for concurrent use; shares
// are added at daemon start-up and looked up on every ATTACH/BOPEN.
type Registry struct {
	mu     sync.RWMutex
	mounts map[string]*mountShare
	stores map[string]*storeShare
}

type mountShare struct {
	env   *sim.Env
	mount *vfs.Mount
}

type storeShare struct {
	env   *sim.Env
	store blockstore.Store
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		mounts: make(map[string]*mountShare),
		stores: make(map[string]*storeShare),
	}
}

// AddMount exports mount under name. A name is unique across both share
// kinds; re-registering it panics (shares are wired once at start-up, so
// a collision is a configuration bug, not a runtime condition).
func (r *Registry) AddMount(name string, env *sim.Env, mount *vfs.Mount) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFresh(name)
	r.mounts[name] = &mountShare{env: env, mount: mount}
}

// AddStore exports store under name.
func (r *Registry) AddStore(name string, env *sim.Env, store blockstore.Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFresh(name)
	r.stores[name] = &storeShare{env: env, store: store}
}

func (r *Registry) checkFresh(name string) {
	if _, ok := r.mounts[name]; ok {
		panic("registry: duplicate share " + name)
	}
	if _, ok := r.stores[name]; ok {
		panic("registry: duplicate share " + name)
	}
}

// Mount returns the mount share name, or nil if no such mount share.
func (r *Registry) Mount(name string) *vfs.Mount {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.mounts[name]; ok {
		return s.mount
	}
	return nil
}

// Store returns the block share name, or nil if no such block share.
func (r *Registry) Store(name string) blockstore.Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.stores[name]; ok {
		return s.store
	}
	return nil
}

// Share describes one registered share for listings (fsshell `shares`,
// the SHARES wire op).
type Share struct {
	Name string
	// Mount is true for a mount share, false for a block share.
	Mount bool
	// Size is the capacity of a block share in bytes; zero for mounts.
	Size int64
}

// Shares lists every share sorted by name.
func (r *Registry) Shares() []Share {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Share, 0, len(r.mounts)+len(r.stores))
	for name := range r.mounts {
		out = append(out, Share{Name: name, Mount: true})
	}
	for name, s := range r.stores {
		out = append(out, Share{Name: name, Size: s.store.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot merges the metrics of every distinct machine hosting a share
// into one snapshot. Shares sharing a sim.Env (the common case: one
// machine exports a mount and the block store beneath it) are counted
// once.
func (r *Registry) Snapshot() metrics.Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var snap metrics.Snapshot
	seen := make(map[*metrics.Registry]bool)
	merge := func(env *sim.Env) {
		if env == nil || env.Metrics == nil || seen[env.Metrics] {
			return
		}
		seen[env.Metrics] = true
		snap.Merge(env.Metrics.Snapshot())
	}
	// Deterministic merge order: sorted names, mounts then stores.
	for _, name := range sortedKeys(r.mounts) {
		merge(r.mounts[name].env)
	}
	for _, name := range sortedKeys(r.stores) {
		merge(r.stores[name].env)
	}
	if snap.Counters == nil {
		snap.Counters = map[string]int64{}
	}
	return snap
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
