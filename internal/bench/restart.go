package bench

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/restore"
	"repro/spf"
)

// firstReadLatency (E26) measures how long the first post-crash read
// waits: crash a database with a large dirty working set, restart it, and
// read one key. With full=false the instant-restart path runs —
// preparation is O(active pages), Restart returns before redo completes,
// and the read pays only its own page's chain replay. With full=true the
// synchronous forward-scan redo runs to completion
// (Options.Restore.Disabled — the pre-instant baseline) before any read
// can start. One iteration is one full crash-and-restart cycle. The metric
// is the mean crash-to-first-read time; the instant path must have marked
// pages needs-redo.
func firstReadLatency(full bool) func(*testing.B) Result {
	return func(b *testing.B) Result {
		const (
			keys   = 3000
			rounds = 4
		)
		var total, marked int64
		for iter := 0; iter < b.N; iter++ {
			b.StopTimer()
			// Post-checkpoint rounds dirty every page again without a single
			// write-back (the pool holds the working set), so the crash
			// leaves the whole tree in the dirty page table and redo has a
			// real per-page chain to replay.
			db := loadRounds(b, spf.RestoreOptions{Workers: 1, Disabled: full}, "t", keys, rounds, bkey, bval,
				func(db *spf.DB) error { _, err := db.Checkpoint(); return err })
			db.Crash()

			b.StartTimer()
			start := time.Now()
			ndb, rep, err := db.Restart()
			if err != nil {
				b.Fatal(err)
			}
			ix2, err := ndb.Index("t")
			if err != nil {
				b.Fatal(err)
			}
			got, err := ix2.Get(bkey(0))
			lat := time.Since(start).Nanoseconds()
			b.StopTimer()
			if err != nil || !bytes.Equal(got, bval(rounds*keys)) {
				b.Fatalf("first read after restart: %q, %v", got, err)
			}
			total += lat
			marked = int64(rep.Prep.PagesMarked)
			ndb.DrainRestore()
			if err := ndb.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.StopTimer()
		res := Result{Metric: float64(total / int64(b.N))}
		if !full && marked == 0 {
			res.Err = errors.New("instant restart marked no pages")
		}
		return res
	}
}

// restartCheck is E26's criterion: instant restart's first read must be
// ≥5x faster than the full-redo baseline's.
func restartCheck(rs []Result, logf func(string, ...any)) error {
	instant, full := int64(rs[0].Metric), int64(rs[1].Metric)
	if rs[0].N == 0 || rs[1].N == 0 {
		return nil
	}
	if full < 5*instant {
		return fmt.Errorf("instant first read %dus not >=5x better than full redo %dus", instant/1e3, full/1e3)
	}
	logf("first read after crash: instant=%dus full-redo=%dus (%.1fx)",
		instant/1e3, full/1e3, float64(full)/float64(instant))
	return nil
}

// redoCost is the simulated per-page redo cost: one device image read
// plus a short chain replay. It is paid with a sleep so the workers yield
// the CPU exactly like a redo blocked on I/O — the simulated-I/O clock
// only accumulates time and never sleeps, so wall-clock worker scaling
// must be modeled at the scheduler level (the E24 approach).
const redoCost = 300 * time.Microsecond

// redoBacklog is the needs-redo backlog size of one E27 iteration.
const redoBacklog = 256

// redoDrain (E27) measures the bulk redo drain after an instant restart
// at the scheduler level: a backlog of per-page redo tickets —
// cost-ordered by chain length, exactly how Restart enqueues its
// needs-redo marks — is drained by the given worker count, each repair
// paying redoCost. Redo is partitioned by page, so workers never contend
// on a ticket. The metric is the mean drain time.
func redoDrain(workers int) func(*testing.B) Result {
	return func(b *testing.B) Result {
		var total int64
		for iter := 0; iter < b.N; iter++ {
			b.StopTimer()
			sched := restore.New(restore.Config{Workers: workers}, restore.Deps{
				Repair: func(page.ID) error {
					time.Sleep(redoCost)
					return nil
				},
			})
			sched.Start()
			b.StartTimer()
			start := time.Now()
			for i := 1; i <= redoBacklog; i++ {
				// Chain lengths vary page to page; the scheduler pops the
				// short chains first within the background band.
				sched.EnqueueCost(page.ID(i), restore.Background, int64(i%17+1))
			}
			sched.Drain()
			total += time.Since(start).Nanoseconds()
			b.StopTimer()
			sched.Stop()
			b.StartTimer()
		}
		b.StopTimer()
		return Result{Metric: float64(total / int64(b.N))}
	}
}

// redoDrainCheck is E27's criterion: the needs-redo backlog an instant
// restart enqueues is partitioned by page, so adding workers divides the
// drain time — 4 workers must drain ≥2x faster than 1.
func redoDrainCheck(rs []Result, logf func(string, ...any)) error {
	w1, w4 := int64(rs[0].Metric), int64(rs[1].Metric)
	if w1 <= 0 || w4 <= 0 {
		return nil
	}
	if w1 < 2*w4 {
		return fmt.Errorf("4-worker drain %dms not >=2x faster than 1-worker %dms", w4/1e6, w1/1e6)
	}
	logf("drain %d pages: 1 worker=%dms, 4 workers=%dms (%.1fx)",
		redoBacklog, w1/1e6, w4/1e6, float64(w1)/float64(w4))
	return nil
}

func bkey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func bval(i int) []byte { return []byte(fmt.Sprintf("value-%08d", i)) }
