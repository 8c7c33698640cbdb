// Package qcache provides a concurrency-safe, sharded LRU cache keyed
// by string. The public engine uses it to memoize compiled substructure
// constraints together with their V(S,G) vertex sets. The cache is a
// pure capacity/recency structure and never invalidates anything: a
// caller whose values can go stale checks a value after Get and
// replaces it with Add (the engine checks each compiled constraint
// against the write history of the epoch that reads it).
//
// Concurrency: keys are distributed over power-of-two many shards by an
// FNV-1a hash, each shard guarded by its own mutex, so concurrent
// readers with disjoint keys rarely contend. Within one shard, Get is a
// map lookup plus an LRU-list move; Add evicts the least recently used
// entry when the shard is at capacity. All operations are O(1). Shards
// are padded to cache-line multiples so readers on disjoint shards do
// not false-share mutex words (see shard).
package qcache

import (
	"container/list"
	"sync"
	"unsafe"
)

// defaultShards bounds the shard fan-out. 16 shards keep contention
// negligible at any realistic core count while staying cheap to sum in
// Stats.
const defaultShards = 16

// Cache is a sharded LRU cache from string keys to V values. The zero
// value is not usable; call New.
type Cache[V any] struct {
	shards []shard
	mask   uint32
}

// shardState is the mutable per-shard state. It carries no V so its
// size is a compile-time constant, which lets shard pad it exactly.
type shardState struct {
	mu           sync.Mutex
	capacity     int
	order        *list.List // front = most recently used
	items        map[string]*list.Element
	hits, misses int64
}

// cacheLine is the assumed L1 line size.
const cacheLine = 64

// shard pads shardState to a multiple of two cache lines. All shards
// live adjacently in one slice; unpadded, two ~48-byte shards share a
// 64-byte line and concurrent readers on disjoint shards ping-pong the
// line holding both mutex words. Two lines rather than one because the
// slice base is only guaranteed 8-byte-aligned (one line of padding can
// still leave a shard's trailing hot counters on the same line as its
// neighbour's mutex) and because x86's adjacent-line prefetcher pulls
// lines in pairs. BenchmarkCacheGetContended (-cpu 1,4) measures the
// effect against the unpadded layout.
type shard struct {
	shardState
	_ [(2*cacheLine - unsafe.Sizeof(shardState{})%(2*cacheLine)) % (2 * cacheLine)]byte
}

type entry[V any] struct {
	key string
	val V
}

// New returns a cache holding at most capacity entries in total.
// Capacity must be positive. The shard count is the largest power of
// two that is at most min(defaultShards, capacity), so small caches
// degrade to a single strict-LRU shard.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		panic("qcache: capacity must be positive")
	}
	n := 1
	for n*2 <= defaultShards && n*2 <= capacity {
		n *= 2
	}
	c := &Cache[V]{shards: make([]shard, n), mask: uint32(n - 1)}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = base
		if i < rem {
			s.capacity++
		}
		s.order = list.New()
		s.items = make(map[string]*list.Element, s.capacity)
	}
	return c
}

// fnv1a is the 32-bit FNV-1a hash, inlined to avoid per-call allocation.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *Cache[V]) shardFor(key string) *shard {
	return &c.shards[fnv1a(key)&c.mask]
}

// Get returns the value cached under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.hits++
		s.order.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	s.misses++
	var zero V
	return zero, false
}

// Add inserts (or refreshes) key → val as the most recently used entry,
// evicting the least recently used entry of the key's shard when the
// shard is full.
func (c *Cache[V]) Add(key string, val V) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*entry[V]).val = val
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.capacity {
		oldest := s.order.Back()
		delete(s.items, oldest.Value.(*entry[V]).key)
		s.order.Remove(oldest)
	}
	s.items[key] = s.order.PushFront(&entry[V]{key: key, val: val})
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits     int64
	Misses   int64
	Entries  int
	Capacity int
	Shards   int
}

// Stats sums the per-shard counters.
func (c *Cache[V]) Stats() Stats {
	st := Stats{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Entries += s.order.Len()
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}
