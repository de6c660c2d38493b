package bench

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/storage"
	"repro/internal/wal"
)

// pageEnv is a standalone buffer pool over a simulated device with raw
// pages created, logged and flushed: the substrate of the pool and
// maintenance benchmarks (E17, E18, E21, E22).
type pageEnv struct {
	dev  *storage.Device
	pmap *pagemap.Map
	log  *wal.Manager
	pool *buffer.Pool
	ids  []page.ID // the seeded logical page IDs in creation order
}

func newPageEnv(b *testing.B, capacity, nPages, slots int, hooks buffer.Hooks) *pageEnv {
	b.Helper()
	e := &pageEnv{
		dev:  storage.NewDevice(storage.Config{PageSize: 4096, Slots: slots, Profile: iosim.Instant}),
		pmap: pagemap.New(pagemap.InPlace, slots),
		log:  wal.NewManager(iosim.Instant),
		ids:  make([]page.ID, nPages),
	}
	e.pool = buffer.NewPool(buffer.Config{Capacity: capacity, Device: e.dev, Map: e.pmap, Log: e.log, Hooks: hooks})
	for i := range e.ids {
		id := e.pmap.AllocateLogical()
		h, err := e.pool.Create(id, page.TypeRaw)
		if err != nil {
			b.Fatal(err)
		}
		h.Lock()
		if err := h.Page().SetPayload([]byte(fmt.Sprintf("bench-page-%d", id))); err != nil {
			b.Fatal(err)
		}
		lsn := e.log.Append(&wal.Record{Type: wal.TypeFormat, Txn: 1, PageID: id})
		h.Page().SetLSN(lsn)
		h.MarkDirty(lsn)
		h.Unlock()
		h.Release()
		e.ids[i] = id
	}
	if err := e.pool.FlushAll(); err != nil {
		b.Fatal(err)
	}
	return e
}

// corrupt evicts page id and silently corrupts its stored image.
func (e *pageEnv) corrupt(b *testing.B, id page.ID) {
	b.Helper()
	if err := e.pool.Evict(id); err != nil && !errors.Is(err, buffer.ErrNotResident) {
		b.Fatal(err)
	}
	slot, ok := e.pmap.Lookup(id)
	if !ok {
		b.Fatal("corrupt target has no slot")
	}
	if err := e.dev.CorruptStored(slot); err != nil {
		b.Fatal(err)
	}
}

// recoverRaw stands in for single-page recovery on raw pages: the pool
// detects the corrupt image and this hook supplies a fresh one.
var recoverRaw = buffer.Hooks{
	Recover: func(id page.ID) (*page.Page, error) {
		pg := page.New(id, page.TypeRaw, 4096)
		if err := pg.SetPayload([]byte(fmt.Sprintf("recovered-%d", id))); err != nil {
			return nil, err
		}
		return pg, nil
	},
}

// parallelFetch has RunParallel workers fetch and release ids round robin,
// each starting at its own stagger offset.
func parallelFetch(b *testing.B, pool *buffer.Pool, ids []page.ID, stagger int) {
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * stagger
		for pb.Next() {
			h, err := pool.Fetch(ids[i%len(ids)])
			if err != nil {
				b.Error(err)
				return
			}
			h.Release()
			i++
		}
	})
	b.StopTimer()
}

// fetchHit (E17) measures the buffer pool's hot path: all pages resident,
// every Fetch a hit. With the sharded pool this path takes no locks
// (sync.Map lookup + atomic pin) and performs zero allocations per
// operation; throughput should scale with GOMAXPROCS.
func fetchHit(b *testing.B) Result {
	const nPages = 512
	e := newPageEnv(b, 1024, nPages, 8192, buffer.Hooks{})
	parallelFetch(b, e.pool, e.ids, 7919)
	if s := e.pool.Stats(); s.Misses > int64(nPages) {
		return Result{Err: fmt.Errorf("hit benchmark missed: %+v", s)}
	}
	return Result{}
}

// fetchMissRecover (E18) measures the validated read path under eviction
// pressure (working set 4x the pool) with a slice of the pages silently
// corrupted, so the run includes full Fig. 8 single-page recoveries —
// detect, recover, relocate, retire — amid ordinary misses.
func fetchMissRecover(b *testing.B) Result {
	const (
		nPages    = 256
		capacity  = 64
		corrupted = 32
	)
	e := newPageEnv(b, capacity, nPages, 16384, recoverRaw)
	for _, id := range e.ids {
		// Setup eviction pressure already displaced most pages; only the
		// stragglers are still resident.
		if err := e.pool.Evict(id); err != nil && !errors.Is(err, buffer.ErrNotResident) {
			b.Fatal(err)
		}
	}
	for i := 0; i < corrupted; i++ {
		e.corrupt(b, e.ids[i*(nPages/corrupted)])
	}
	parallelFetch(b, e.pool, e.ids, 6151)
	if s := e.pool.Stats(); s.Escalations != 0 {
		return Result{Err: fmt.Errorf("unexpected escalations: %+v", s)}
	}
	return Result{}
}
