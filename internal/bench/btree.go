package bench

// The B-tree drivers (E23, E28, E29) run against a minimal engine. E23
// compares the latch-coupled tree against a tree-global-mutex baseline
// shim — the seed's serialization discipline (all writers behind one
// writer lock, readers behind its read side) reproduced on top of the
// identical tree — under a mixed Get/Insert/Update/Delete workload in two
// shapes: disjoint (each worker owns its key range, the scalable case) and
// contended (every worker hammers one shared range).

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backup"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// pager is a minimal engine (pool + map + log + txn manager + PRI), the
// same substrate the btree unit tests run on. missLatency, when set,
// charges a real device latency on every buffer miss: the simulated
// devices account virtual time only, but the point of latch coupling is
// overlapping I/O stalls that a tree-global lock serializes, so the
// benchmark makes the stall real. It applies identically to both sides of
// the comparison.
type pager struct {
	dev         *storage.Device
	pmap        *pagemap.Map
	log         *wal.Manager
	pool        *buffer.Pool
	txns        *txn.Manager
	pri         *core.PRI
	missLatency time.Duration
}

func newPager(frames int) *pager {
	const pageSize, slots = 1024, 1 << 18
	p := &pager{
		dev:  storage.NewDevice(storage.Config{PageSize: pageSize, Slots: slots, Profile: iosim.Instant}),
		pmap: pagemap.New(pagemap.InPlace, slots),
		log:  wal.NewManager(iosim.Instant),
		pri:  core.NewPRI(),
	}
	p.txns = txn.NewManager(p.log)
	p.pool = buffer.NewPool(buffer.Config{
		Capacity: frames, Device: p.dev, Map: p.pmap, Log: p.log,
		Hooks: buffer.Hooks{
			CompleteWrite: func(info buffer.WriteInfo) []*wal.Record {
				_, _ = p.pri.SetLastLSN(info.Page, info.PageLSN)
				return nil
			},
		},
	})
	p.txns.SetUndoer(p)
	return p
}

func (p *pager) Undo(t *txn.Txn, rec *wal.Record) error {
	return btree.Compensate(t, p, rec)
}

func (p *pager) AllocateNode(t *txn.Txn, typ page.Type, initialPayload []byte) (*buffer.Handle, error) {
	id := p.pmap.AllocateLogical()
	h, err := p.pool.Create(id, typ)
	if err != nil {
		return nil, err
	}
	h.Lock()
	defer h.Unlock()
	if err := h.Page().SetPayload(initialPayload); err != nil {
		h.Release()
		return nil, err
	}
	lsn, err := t.Log(&wal.Record{
		Type:    wal.TypeFormat,
		PageID:  id,
		Payload: backup.FormatPayload(typ, initialPayload),
	})
	if err != nil {
		h.Release()
		return nil, err
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	p.pri.Set(id, core.Entry{
		Backup:  core.BackupRef{Kind: core.BackupFormat, Loc: uint64(lsn), AsOf: lsn},
		LastLSN: lsn,
	})
	return h, nil
}

func (p *pager) Fetch(id page.ID) (*buffer.Handle, error) {
	if p.missLatency > 0 && !p.pool.IsResident(id) {
		time.Sleep(p.missLatency)
	}
	return p.pool.Fetch(id)
}
func (p *pager) BeginSystem() *txn.Txn { return p.txns.BeginSystem() }

// treeOps is the slice of the tree API the workload exercises; the
// latch-coupled tree and the global-mutex shim both implement it.
type treeOps interface {
	Get(key []byte) ([]byte, error)
	Insert(tx *txn.Txn, key, val []byte) error
	Update(tx *txn.Txn, key, val []byte) error
	Delete(tx *txn.Txn, key []byte) error
}

// mutexTree is the tree-global-mutex baseline shim: the identical tree with
// the seed's serialization reproduced on top — writers fully serialized by
// one RWMutex, readers sharing its read side and stalling behind any
// in-flight writer. It exists purely as the before-side of E23 so the
// latch-coupling speedup stays measurable after the old code is gone.
type mutexTree struct {
	mu sync.RWMutex
	tr *btree.Tree
}

func (m *mutexTree) Get(key []byte) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tr.Get(key)
}

func (m *mutexTree) Insert(tx *txn.Txn, key, val []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tr.Insert(tx, key, val)
}

func (m *mutexTree) Update(tx *txn.Txn, key, val []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tr.Update(tx, key, val)
}

func (m *mutexTree) Delete(tx *txn.Txn, key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tr.Delete(tx, key)
}

const (
	// baseKeys is how many stable keys each range holds (preloaded).
	baseKeys = 128
	// flipKeys is the volatile sub-range inserts and deletes toggle.
	flipKeys = 32
	// maxWorkers caps the distinct disjoint write ranges (RunParallel
	// worker IDs wrap around beyond it). Reads roam over all ranges.
	maxWorkers = 64
	// poolFrames is sized well below the disjoint working set so reads
	// miss regularly and pay missLatency — the realistic regime where
	// serializing I/O stalls behind one tree lock hurts most.
	poolFrames = 256
	// missLatency is the charged device latency per buffer miss (an SSD
	// read is tens of microseconds).
	missLatency = 40 * time.Microsecond
)

func benchKey(shard, i int) []byte {
	return []byte(fmt.Sprintf("r%02d-%06d", shard, i))
}

// newTree creates a B-tree over a fresh pager with the given pool size and
// commits shards*baseKeys keys benchKey(s, i)→val in one transaction.
func newTree(b *testing.B, frames, shards int, val []byte) (*pager, *btree.Tree) {
	b.Helper()
	p := newPager(frames)
	st := p.txns.BeginSystem()
	tr, err := btree.Create(st, "bench", p)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		b.Fatal(err)
	}
	load := p.txns.Begin()
	for s := 0; s < shards; s++ {
		for i := 0; i < baseKeys; i++ {
			if err := tr.Insert(load, benchKey(s, i), val); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := load.Commit(); err != nil {
		b.Fatal(err)
	}
	return p, tr
}

// parallelOps returns a driver running the mixed workload: 30% Get, 50%
// Update, 10% Insert, 10% Delete per worker, against either the
// latch-coupled tree (globalMutex=false) or the baseline shim. contended
// selects whether workers share one key range or own disjoint ranges.
// E23 runs the tree in its default configuration (optimistic descent on);
// E29 toggles the descent on the latch-coupled tree.
func parallelOps(contended, globalMutex, optimistic bool) func(b *testing.B) Result {
	return func(b *testing.B) Result {
		shards := maxWorkers
		if contended {
			shards = 1
		}
		p, tr := newTree(b, poolFrames, shards, []byte("v0"))
		tr.SetOptimistic(optimistic)
		p.missLatency = missLatency // charge misses only after the preload
		var ops treeOps = tr
		if globalMutex {
			ops = &mutexTree{tr: tr}
		}
		var widGen int32
		var widMu sync.Mutex
		nextWid := func() int {
			widMu.Lock()
			defer widMu.Unlock()
			widGen++
			return int(widGen)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			wid := nextWid()
			shard := 0
			if !contended {
				shard = wid % maxWorkers
			}
			rng := uint64(wid)*0x9E3779B97F4A7C15 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			tx := p.txns.Begin()
			val := []byte("value-00000000")
			for pb.Next() {
				r := next()
				switch {
				case r%10 < 3: // Get: roams all ranges (base keys: always present)
					gshard := shard
					if !contended {
						gshard = int(r>>32) % maxWorkers
					}
					k := benchKey(gshard, int(r>>8)%baseKeys)
					if _, err := ops.Get(k); err != nil {
						b.Error(err)
						return
					}
				case r%10 < 8: // Update (base range: never deleted)
					k := benchKey(shard, int(r>>8)%baseKeys)
					if err := ops.Update(tx, k, val); err != nil {
						b.Error(err)
						return
					}
				case r%10 < 9: // Insert into the volatile sub-range
					k := benchKey(shard, baseKeys+int(r>>8)%flipKeys)
					if err := ops.Insert(tx, k, val); err != nil &&
						!errors.Is(err, btree.ErrKeyExists) {
						b.Error(err)
						return
					}
				default: // Delete from the volatile sub-range
					k := benchKey(shard, baseKeys+int(r>>8)%flipKeys)
					if err := ops.Delete(tx, k); err != nil &&
						!errors.Is(err, btree.ErrKeyNotFound) {
						b.Error(err)
						return
					}
				}
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
			}
		})
		b.StopTimer()
		return Result{}
	}
}

const (
	// residentShards sizes the E28 key space: residentShards*baseKeys keys
	// build a three-level tree (root, interior branches, leaves) so the
	// optimistic descent routes through more than one cached skeleton.
	residentShards = 32
	// residentFrames keeps the whole tree resident: E28 measures the pure
	// in-memory read path, no buffer misses, no charged I/O latency.
	residentFrames = 4096
)

// residentReads is the E28 driver: point reads against a fully resident,
// static three-level tree — the regime the decoded-skeleton cache and
// optimistic latch coupling target. zipfian selects the key distribution
// (a Zipf(1.2) skew concentrates traffic on few hot leaves, the shape
// where root/branch latch traffic hurts most; uniform spreads it).
// optimistic toggles the descent: true is the lock-free version-validated
// path (sub-µs, zero allocations per op via GetTo into a reused buffer),
// false forces the shared-latch crab on every level. Criterion:
// optimistic ≥3× the latched baseline at -cpu 8, with 0 allocs/op on the
// hit path, and hits must dwarf fallbacks on this static tree. The metric
// is the optimistic hit fraction (1.0 = every descent completed without
// falling back to the latched path).
func residentReads(zipfian, optimistic bool) func(*testing.B) Result {
	return func(b *testing.B) Result {
		_, tr := newTree(b, residentFrames, residentShards, []byte("value-00000000"))
		tr.SetOptimistic(optimistic)
		keys := make([][]byte, 0, residentShards*baseKeys)
		for s := 0; s < residentShards; s++ {
			for i := 0; i < baseKeys; i++ {
				keys = append(keys, benchKey(s, i))
			}
		}
		// Warm pass: faults every page in and (when optimistic) builds the
		// branch skeleton caches, so the timed region measures steady state.
		for _, k := range keys {
			if _, err := tr.Get(k); err != nil {
				b.Fatal(err)
			}
		}
		n := uint64(len(keys))
		var widGen atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			wid := uint64(widGen.Add(1))
			var zipf *rand.Zipf
			if zipfian {
				zipf = rand.NewZipf(rand.New(rand.NewSource(int64(wid))), 1.2, 1, n-1)
			}
			rng := wid*0x9E3779B97F4A7C15 + 1
			buf := make([]byte, 0, 64)
			for pb.Next() {
				var i uint64
				if zipfian {
					i = zipf.Uint64()
				} else {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					i = rng % n
				}
				var err error
				buf, err = tr.GetTo(buf[:0], keys[i])
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		var res Result
		hits, fallbacks := tr.OptimisticStats()
		if total := hits + fallbacks; total > 0 {
			res.Metric = float64(hits) / float64(total)
		}
		if optimistic && b.N > 1000 {
			if hits == 0 {
				res.Err = errors.New("optimistic descent never completed on a static tree")
			} else if fallbacks*100 > hits {
				res.Err = fmt.Errorf("fallbacks %d vs hits %d: >1%% on a static resident tree", fallbacks, hits)
			}
		}
		return res
	}
}
