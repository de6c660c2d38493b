package bench

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/maintenance"
	"repro/internal/page"
	"repro/internal/wal"
)

// writeBack (E21) drives b.N page updates over a hot set of pages and
// makes them all durable, comparing the flush policies the maintenance
// subsystem replaces and provides:
//
//   - async=false — the old foreground discipline: every update pays a
//     synchronous write-back (write + PRI log append) before the next
//     update proceeds, the latency evictions and checkpoints used to pay.
//   - async=true — updates only mark pages dirty and prod the maintenance
//     service; flusher workers drain batches concurrently (watermark- and
//     age-triggered), each batch logging its PRI updates as one grouped
//     append. Re-dirtied hot pages coalesce into one write per drain.
//
// Both modes end fully flushed (the async run stops the service and drains
// the remainder), so the durability work is equivalent. The metric,
// writes/update, is the write amplification each policy pays — the async
// coalescing is what buys the ≥2× throughput.
func writeBack(async bool) func(*testing.B) Result {
	return func(b *testing.B) Result {
		const (
			hotPages = 64
			capacity = 1024
		)
		priPayload := make([]byte, 32)
		e := newPageEnv(b, capacity, hotPages, 16384, buffer.Hooks{
			// Mimic the engine's completed-write logging: one PRI update
			// record per page write, appended by the pool (singly on the
			// synchronous path, grouped per batch on the async path).
			CompleteWrite: func(info buffer.WriteInfo) []*wal.Record {
				return []*wal.Record{{Type: wal.TypePRIUpdate, PageID: info.Page, Payload: priPayload}}
			},
		})
		ids := e.ids
		// Everything below reports deltas: seeding itself flushed (and
		// group-appended) once.
		writesBefore := e.dev.Stats().Writes
		batchesBefore := e.log.Stats().BatchAppends

		var svc *maintenance.Service
		if async {
			svc = maintenance.New(maintenance.Config{
				FlushWorkers:       1,
				FlushBatchPages:    hotPages,
				FlushInterval:      2 * time.Millisecond,
				DirtyHighWatermark: 0.25,
				// Scrubbing off: E22 measures the campaign separately.
				ScrubPagesPerSecond: -1,
			}, maintenance.Deps{Pool: e.pool})
			svc.Start()
		}

		payload := make([]byte, 100)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			id := ids[n%hotPages]
			h, err := e.pool.Fetch(id)
			if err != nil {
				b.Fatal(err)
			}
			h.Lock()
			if err := h.Page().SetPayload(payload); err != nil {
				b.Fatal(err)
			}
			lsn := e.log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 1, PageID: id})
			h.Page().SetLSN(lsn)
			h.MarkDirty(lsn)
			h.Unlock()
			h.Release()
			if async {
				svc.NotifyDirty()
			} else if err := e.pool.FlushPage(id); err != nil {
				b.Fatal(err)
			}
		}
		if async {
			svc.Stop()
			if err := e.pool.FlushAll(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if d := e.pool.DirtyCount(); d != 0 {
			return Result{Err: fmt.Errorf("%d pages left dirty", d)}
		}
		// DeviceWrites/Updates is the write amplification of the flush
		// policy: synchronous write-through pays ~1.0; batched background
		// write-back coalesces re-dirtied hot pages and pays a fraction.
		updates := int64(b.N)
		writes := e.dev.Stats().Writes - writesBefore
		batches := e.log.Stats().BatchAppends - batchesBefore
		res := Result{Metric: float64(writes) / float64(updates)}
		switch {
		// Shape: write-through pays one device write and one PRI append per
		// update, and nothing is grouped.
		case !async && writes < updates:
			res.Err = fmt.Errorf("sync mode wrote %d pages for %d updates", writes, updates)
		case !async && batches != 0:
			res.Err = fmt.Errorf("sync mode used %d grouped appends", batches)
		case async && writes > updates:
			res.Err = fmt.Errorf("async mode wrote %d pages for %d updates", writes, updates)
		// Shape (only meaningful once the workload dwarfs the hot set):
		// batching must group PRI appends and coalesce re-dirtied pages to
		// well under half the synchronous write count.
		case async && b.N >= 4096 && batches == 0:
			res.Err = errors.New("async mode never grouped a PRI append")
		case async && b.N >= 4096 && 2*writes >= updates:
			res.Err = fmt.Errorf("async coalescing too weak: %d writes for %d updates", writes, updates)
		}
		return res
	}
}

// scrubOverhead (E22) drives b.N foreground fetches (buffer hits — the
// engine's hot path) while a scrub campaign runs at the given page rate
// underneath (rate <= 0 disables the campaign: the baseline). A slice of
// cold pages carries persistent corruption, so an enabled campaign does
// real repair work, not just clean scans. The interesting number is the
// foreground ns/op delta between rate=0 and rate>0: the campaign's
// overhead on foreground traffic. The metric is the pages the campaign
// scrubbed; an enabled campaign must make progress for its number to mean
// anything.
func scrubOverhead(rate int) func(*testing.B) Result {
	return func(b *testing.B) Result {
		const (
			nPages    = 256
			capacity  = 1024
			corrupted = 8
		)
		// A tight slot space keeps full sweeps short (a sweep is what finds
		// the injected damage), which matters on starved single-core runners.
		// The recovery hook serves the campaign's repairs.
		e := newPageEnv(b, capacity, nPages, 2048, recoverRaw)
		ids := e.ids
		// Latent damage on cold (evicted) pages only: the resident hot set
		// keeps serving the foreground; only the campaign goes to the device.
		for i := 0; i < corrupted; i++ {
			e.corrupt(b, ids[nPages-1-i])
		}

		var svc *maintenance.Service
		if rate > 0 {
			svc = maintenance.New(maintenance.Config{
				ScrubPagesPerSecond: rate,
				ScrubBatchPages:     64,
				FlushInterval:       5 * time.Millisecond,
			}, maintenance.Deps{
				Pool:        e.pool,
				Dev:         e.dev,
				MappedSlots: e.pmap.MappedSlots,
				Repair: func(id page.ID) error {
					// Cold pages are unpinned; not-resident just means no
					// cached copy to drop.
					if err := e.pool.Evict(id); err != nil && !errors.Is(err, buffer.ErrNotResident) {
						return err
					}
					h, err := e.pool.Fetch(id)
					if err != nil {
						return err
					}
					h.Release()
					return nil
				},
			})
			svc.Start()
		}

		hot := nPages - corrupted
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			h, err := e.pool.Fetch(ids[n%hot])
			if err != nil {
				b.Fatal(err)
			}
			h.Release()
		}
		b.StopTimer()
		var res Result
		if svc != nil {
			// Outside the timed region, give the campaign a moment to show
			// life: on a single-core runner the foreground loop starves the
			// scrub goroutine, and asserting progress without this grace
			// window would be a scheduler lottery.
			deadline := time.Now().Add(2 * time.Second)
			for svc.Stats().PagesScrubbed == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			svc.Stop()
			res.Metric = float64(svc.Stats().PagesScrubbed)
			if res.Metric == 0 {
				res.Err = errors.New("campaign made no progress during the run")
			}
		}
		return res
	}
}
