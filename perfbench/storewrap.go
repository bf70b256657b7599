package main

import (
	"sync"
	"time"

	"cvcp/internal/dist"
	"cvcp/internal/store"
)

// tracedStore times every call a traced run makes into a store. It
// forwards the optional store.Updater interface as well: the manager and
// the worker type-assert dist.Store, and a decorator that hid Update
// would silently turn a coordinator into a local executor.
type tracedStore struct {
	inner store.Store
	tr    *tracer

	mu                        sync.Mutex
	puts, gets, updates, apps []float64 // call latencies in ms
}

var _ dist.Store = (*tracedStore)(nil)

func newTracedStore(inner store.Store, tr *tracer) *tracedStore {
	if _, ok := inner.(store.Updater); !ok {
		panic("perfbench: traced store needs an Updater")
	}
	return &tracedStore{inner: inner, tr: tr}
}

func (s *tracedStore) observe(name string, into *[]float64, t0 time.Time) {
	t1 := time.Now()
	s.tr.record(name, -1, -1, t0, t1)
	s.mu.Lock()
	*into = append(*into, ms(t1.Sub(t0)))
	s.mu.Unlock()
}

func (s *tracedStore) Put(rec store.Record) error {
	defer s.observe("store.put", &s.puts, time.Now())
	return s.inner.Put(rec)
}

func (s *tracedStore) Get(id string) (store.Record, bool, error) {
	defer s.observe("store.get", &s.gets, time.Now())
	return s.inner.Get(id)
}

func (s *tracedStore) Update(id string, fn func(cur store.Record, ok bool) (store.Record, bool, error)) (store.Record, error) {
	defer s.observe("store.update", &s.updates, time.Now())
	return s.inner.(store.Updater).Update(id, fn)
}

func (s *tracedStore) AppendEvents(id string, events []store.Event) error {
	defer s.observe("store.append_events", &s.apps, time.Now())
	return s.inner.AppendEvents(id, events)
}

func (s *tracedStore) EventsSince(id string, afterSeq int) ([]store.Event, error) {
	return s.inner.EventsSince(id, afterSeq)
}

func (s *tracedStore) List(cursor string, limit int) ([]store.Record, string, error) {
	return s.inner.List(cursor, limit)
}

func (s *tracedStore) Delete(id string) error { return s.inner.Delete(id) }

func (s *tracedStore) Len() (int, error) { return s.inner.Len() }

func (s *tracedStore) Close() error { return s.inner.Close() }

// storeStats sums the latencies of several traced stores.
type storeStats struct{ puts, gets, updates, apps []float64 }

func collectStores(stores ...*tracedStore) storeStats {
	var st storeStats
	for _, s := range stores {
		s.mu.Lock()
		st.puts = append(st.puts, s.puts...)
		st.gets = append(st.gets, s.gets...)
		st.updates = append(st.updates, s.updates...)
		st.apps = append(st.apps, s.apps...)
		s.mu.Unlock()
	}
	return st
}

// storeLayers fills the store.* per-layer metrics, counts per operation.
func storeLayers(layers map[string]float64, st storeStats, before, after map[string]float64, ops float64) {
	layers["store.puts"] = float64(len(st.puts)) / ops
	layers["store.put_ms.p50"] = median(st.puts)
	layers["store.put_ms.p90"] = quantile(st.puts, 0.9)
	layers["store.append_events"] = float64(len(st.apps)) / ops
	layers["store.updates"] = float64(len(st.updates)) / ops
	layers["store.update_ms.p50"] = median(st.updates)
	layers["store.get_ms.p50"] = median(st.gets)
	layers["store.fsyncs"] = counterDelta(before, after, "cvcpd_wal_fsync_seconds_count") / ops
	layers["store.fsync_s"] = counterDelta(before, after, "cvcpd_wal_fsync_seconds_sum") / ops
}
