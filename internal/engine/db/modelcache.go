package db

import (
	"container/list"
	"sync"

	"indbml/internal/core/modeljoin"
	"indbml/internal/engine/storage"
)

// modelCacheKey identifies one built model artifact. The table pointer and
// version make invalidation implicit: any DML bumps the version, and dropping
// or re-registering a table yields a different *storage.Table, so a stale
// entry can never be hit — it is evicted when a newer version of the same
// model is looked up, and becomes that version's delta-build base.
type modelCacheKey struct {
	model   string // lower-cased model-table name
	tbl     *storage.Table
	version uint64
	device  string // "cpu" or "gpu"
}

type modelCacheEnt struct {
	key modelCacheKey
	sm  *modeljoin.SharedModel
}

// ModelCacheStats is a snapshot of the artifact cache counters.
type ModelCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// modelCache is the cross-query model artifact cache (LRU, bounded). A hit
// hands out a SharedModel whose build already ran, so the query skips the
// paper's build phase entirely and goes straight to inference.
type modelCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *modelCacheEnt, front = most recent
	byKey map[modelCacheKey]*list.Element

	hits, misses, evictions uint64
}

func newModelCache(capEntries int) *modelCache {
	return &modelCache{
		cap:   capEntries,
		lru:   list.New(),
		byKey: make(map[modelCacheKey]*list.Element),
	}
}

// get returns the cached SharedModel for key (hit=true), or installs
// build()'s result (hit=false). On a miss it also evicts entries for stale
// versions of the same model on the same device — they can never be
// hit again. The newest stale entry of the same table is offered to the new
// model as the base of a delta build (SharedModel.SetBase), pinned before
// its eviction so its device memory outlives the hand-over.
//
// The returned model carries one hand-out pin, taken under the cache lock
// so it is atomic with eviction: a concurrent removeLocked can no longer
// free the model in the window before the statement's operators take their
// own pins at Open. The caller owns the pin and must Unpin when the
// statement finishes (queryCatalog.release).
func (c *modelCache) get(key modelCacheKey, build func() *modeljoin.SharedModel) (sm *modeljoin.SharedModel, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		sm = el.Value.(*modelCacheEnt).sm
		sm.Pin()
		return sm, true
	}
	c.misses++
	var base *modelCacheEnt
	for el := c.lru.Back(); el != nil; {
		prev := el.Prev()
		e := el.Value.(*modelCacheEnt)
		if e.key.model == key.model && e.key.device == key.device && e.key != key {
			if e.key.tbl == key.tbl && (base == nil || e.key.version > base.key.version) {
				if base != nil {
					base.sm.Unpin()
				}
				base = e
				e.sm.Pin()
			}
			c.removeLocked(el)
		}
		el = prev
	}
	sm = build()
	if base != nil {
		sm.SetBase(base.sm)
	}
	sm.Pin()
	c.byKey[key] = c.lru.PushFront(&modelCacheEnt{key: key, sm: sm})
	for c.lru.Len() > c.cap {
		c.removeLocked(c.lru.Back())
	}
	return sm, false
}

// removeLocked evicts one entry and releases its device memory (deferred to
// the last in-flight user if the model is pinned).
func (c *modelCache) removeLocked(el *list.Element) {
	e := c.lru.Remove(el).(*modelCacheEnt)
	delete(c.byKey, e.key)
	c.evictions++
	e.sm.Release()
}

// invalidateModel evicts every entry for the named model (any version or
// device). Used on DROP TABLE and model re-registration so device
// memory is reclaimed promptly instead of waiting for LRU pressure.
func (c *modelCache) invalidateModel(model string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Back(); el != nil; {
		prev := el.Prev()
		if el.Value.(*modelCacheEnt).key.model == model {
			c.removeLocked(el)
		}
		el = prev
	}
}

// modelCacheEntry is one live cache slot, snapshotted for
// system.model_cache.
type modelCacheEntry struct {
	model   string
	device  string
	version uint64
	slot    int // LRU position, 0 = most recently used
}

// entriesSnapshot lists the live entries in LRU order.
func (c *modelCache) entriesSnapshot() []modelCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]modelCacheEntry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		k := el.Value.(*modelCacheEnt).key
		out = append(out, modelCacheEntry{model: k.model, device: k.device, version: k.version, slot: len(out)})
	}
	return out
}

// stats returns a counter snapshot.
func (c *modelCache) stats() ModelCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ModelCacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.lru.Len()}
}
