package runner

import (
	"runtime"
	"slices"
	"sync"
	"weak"
)

// Cache is the shared memoization layer for engine runs: a two-level,
// single-flight cache of expensive intermediates keyed by an owner (in CVCP,
// the dataset a value is derived from) and a per-owner key (the kind of
// value plus its parameters, e.g. an OPTICS ordering for one MinPts, or the
// owner's pairwise-distance matrix).
//
// Concurrent Do calls for the same (owner, key) collapse into one
// computation: the first caller computes, everyone else blocks on it and
// shares the result. That is what makes a fold×parameter grid cheap — all
// folds of one parameter need the same dendrogram, and every parameter
// needs the same distance matrix, yet each is computed exactly once per
// run regardless of the worker count.
//
// Owners live exactly as long as the owner itself: the cache keys them by
// weak.Pointer, so it never keeps an owner reachable, and a runtime
// cleanup drops an owner's values once the owner has been collected.
// Cached values must not reference their owner, or it never becomes
// unreachable. Independently, owners are evicted in insertion order once
// more than maxOwners are resident — the backstop for owners that stay
// reachable: experiment harnesses walk datasets in sequence and never
// revisit old ones, so retaining a short window of recent owners bounds
// memory without a hit-rate cost.
type Cache[O any] struct {
	maxOwners int

	mu      sync.Mutex
	order   []weak.Pointer[O] // insertion order of owners, for eviction
	entries map[weak.Pointer[O]]map[any]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	val  any
	err  error
}

// NewCache returns a Cache retaining values for at most maxOwners distinct
// owners (minimum 1).
func NewCache[O any](maxOwners int) *Cache[O] {
	if maxOwners < 1 {
		maxOwners = 1
	}
	return &Cache[O]{
		maxOwners: maxOwners,
		entries:   map[weak.Pointer[O]]map[any]*cacheEntry{},
	}
}

// Do returns the cached value for (owner, key), computing it with compute on
// the first call. Errors are cached too: the engine's inputs are
// deterministic, so a failed computation would fail identically on retry.
// key must be a valid map key.
func (c *Cache[O]) Do(owner *O, key any, compute func() (any, error)) (any, error) {
	wp := weak.Make(owner)
	c.mu.Lock()
	m, ok := c.entries[wp]
	if !ok {
		m = map[any]*cacheEntry{}
		c.entries[wp] = m
		c.order = append(c.order, wp)
		if len(c.order) > c.maxOwners {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, evict)
		}
		runtime.AddCleanup(owner, c.drop, wp)
	}
	e, ok := m[key]
	if !ok {
		e = &cacheEntry{}
		m[key] = e
		mCacheMisses.Inc()
	} else {
		mCacheHits.Inc()
	}
	c.mu.Unlock()

	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
}

// drop forgets a collected owner and its values, if still resident.
func (c *Cache[O]) drop(wp weak.Pointer[O]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[wp]; !ok {
		return
	}
	delete(c.entries, wp)
	c.order = slices.DeleteFunc(c.order, func(o weak.Pointer[O]) bool { return o == wp })
}

// Flush drops every cached value. Tests use it to make compute counts
// predictable; production callers never need it.
func (c *Cache[O]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order = nil
	c.entries = map[weak.Pointer[O]]map[any]*cacheEntry{}
}

// Owners reports how many owners currently have resident values.
func (c *Cache[O]) Owners() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}
