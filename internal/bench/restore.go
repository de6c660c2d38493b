package bench

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/restore"
	"repro/spf"
)

// repairCost is the simulated per-repair cost: roughly one backup read
// plus a short chain replay on fast storage. It is paid with a sleep so
// the workers yield the CPU exactly like a repair blocked on I/O.
const repairCost = 300 * time.Microsecond

// onDemandLatency (E24) measures the urgent-path repair-wait latency under
// a saturated background queue — the disjoint-fault shape: every fault
// hits a distinct page, so per-page coalescing cannot help and only
// *ordering* separates the two policies.
//
// Each iteration tops the queue back up to a 64-deep backlog of
// background repairs (a scrub campaign or bulk media restore that keeps
// finding work), then issues one urgent repair for a fresh page and waits
// for it. With fifo=false the request is enqueued Urgent and reorders
// ahead of the backlog (the instant-restore ordering); with fifo=true the
// identical machinery runs with priorities disabled — the request joins
// the queue at Background, which is exactly a FIFO queue — and the wait
// degenerates to draining the backlog. The metric is the p99 wait.
func onDemandLatency(fifo bool) func(*testing.B) Result {
	return func(b *testing.B) Result {
		const (
			workers = 2
			backlog = 64
		)
		sched := restore.New(restore.Config{Workers: workers}, restore.Deps{
			Repair: func(page.ID) error {
				time.Sleep(repairCost)
				return nil
			},
		})
		sched.Start()
		defer sched.Stop()

		// Background pages count up from 1; urgent pages live in a disjoint
		// high range so every urgent request is a fresh fault.
		var nextBg page.ID
		urgentBase := page.ID(1 << 30)
		lat := make([]time.Duration, 0, b.N)

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for sched.Pending() < backlog {
				nextBg++
				sched.Enqueue(nextBg, restore.Background)
			}
			pri := restore.Urgent
			if fifo {
				pri = restore.Background
			}
			start := time.Now()
			if err := sched.Enqueue(urgentBase+page.ID(i), pri).Wait(); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
		b.StopTimer()
		return Result{Metric: float64(P99(lat).Nanoseconds())}
	}
}

// onDemandCheck is E24's criterion: in the disjoint-fault shape
// coalescing cannot help and only queue ordering matters, so the priority
// p99 must be ≥2x better than the FIFO baseline's.
func onDemandCheck(rs []Result, logf func(string, ...any)) error {
	prio, fifo := rs[0], rs[1]
	// Shape only meaningful once both variants measured real tails.
	if prio.N < 32 || fifo.N < 32 {
		return nil
	}
	prioP99, fifoP99 := time.Duration(prio.Metric), time.Duration(fifo.Metric)
	if fifoP99 < 2*prioP99 {
		return fmt.Errorf("urgent promotion p99 %v not >=2x better than FIFO baseline p99 %v", prioP99, fifoP99)
	}
	logf("p99: priority=%v fifo=%v (%.1fx)", prioP99, fifoP99, float64(fifoP99)/float64(prioP99))
	return nil
}

// availabilityResult quantifies one media-recovery availability cycle:
// E25 reads in process, E31 over the wire.
type availabilityResult struct {
	// Keys and Pages size the database that failed.
	Keys  int
	Pages int
	// PrepNs is how long RecoverMedia took to hand back a usable DB
	// (instant-restore preparation, not the full rebuild).
	PrepNs int64
	// FirstReadNs is the latency of the first foreground read issued
	// after RecoverMedia returned (one on-demand page repair, promoted
	// past the background bulk restore).
	FirstReadNs int64
	// ReadsBeforeDrain counts foreground reads that completed while the
	// background restore still had pending pages — the paper-breaking
	// number: a bulk restore serves zero reads before it finishes.
	ReadsBeforeDrain int
	// ReadsTotal is all foreground reads issued (some may land after the
	// queue drained on fast runs).
	ReadsTotal int
	// DrainNs is the total time until the background restore finished
	// (while the reads above were served), from RecoverMedia's return in
	// E25 and from its call in E31.
	DrainNs int64
}

// mediaAvailability (E25) measures reads served *during* media recovery:
// build a database, take a full backup, commit more work, fail the device,
// run instant-restore RecoverMedia, and immediately hammer reads while the
// single background worker grinds through the bulk restore. One iteration
// is one full fail-and-recover cycle.
func mediaAvailability(b *testing.B) Result {
	const keys = 3000
	var res availabilityResult
	for iter := 0; iter < b.N; iter++ {
		b.StopTimer()
		db := loadRounds(b, spf.RestoreOptions{Workers: 1}, "t", keys, 4, bkey, payloadVal, backupDatabase)
		pages := db.PageMapLen()
		db.FailDevice()

		b.StartTimer()
		prepStart := time.Now()
		ndb, _, err := db.RecoverMedia()
		if err != nil {
			b.Fatal(err)
		}
		prep := time.Since(prepStart)
		ix2, err := ndb.Index("t")
		if err != nil {
			b.Fatal(err)
		}
		readStart := time.Now()
		var firstRead time.Duration
		reads, early := 0, 0
		for i := 0; i < keys; i += 37 {
			want := payloadVal(i + 4*keys)
			got, err := ix2.Get(bkey(i))
			if err != nil || !bytes.Equal(got, want) {
				b.Fatalf("key %d during restore: %q, %v", i, got, err)
			}
			reads++
			if firstRead == 0 {
				firstRead = time.Since(readStart)
			}
			if ndb.RestoreStats().Pending > 0 {
				early++
			}
		}
		ndb.DrainRestore()
		drain := time.Since(readStart)
		b.StopTimer()
		res = availabilityResult{
			Keys: keys, Pages: pages,
			PrepNs:           prep.Nanoseconds(),
			FirstReadNs:      firstRead.Nanoseconds(),
			ReadsBeforeDrain: early, ReadsTotal: reads,
			DrainNs: drain.Nanoseconds(),
		}
		if err := ndb.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	return res.result(b, "reads")
}

// result checks the instant-restore shape of a cycle: a bulk restore
// serves zero reads before it completes, so reads must complete while
// pages are still pending, with the first read far below the full drain
// time. The metric counts the reads that completed while the background
// bulk restore still had pending pages.
func (res availabilityResult) result(b *testing.B, reads string) Result {
	r := Result{Metric: float64(res.ReadsBeforeDrain)}
	switch {
	case res.ReadsBeforeDrain == 0:
		r.Err = fmt.Errorf("no %s completed before the bulk restore drained: %+v", reads, res)
	case res.FirstReadNs >= res.DrainNs:
		r.Err = fmt.Errorf("first of the %s (%dns) not faster than the full restore (%dns)",
			reads, res.FirstReadNs, res.DrainNs)
	default:
		b.Logf("pages=%d prep=%dms first-read=%dus %s before drain=%d/%d drain=%dms",
			res.Pages, res.PrepNs/1e6, res.FirstReadNs/1e3,
			reads, res.ReadsBeforeDrain, res.ReadsTotal, res.DrainNs/1e6)
	}
	return r
}

// loadRounds opens a database with the restore benchmarks' 1 KiB-page
// geometry, commits keys entries key(i)→val(i) into a new index, calls
// mark (a checkpoint or a full backup), then commits rounds update passes
// key(i)→val(i+r*keys). Every page then carries a per-page chain past
// mark, so a repair or redo pays a genuine replay (the §6 cost model)
// rather than a bare copy.
func loadRounds(b *testing.B, restore spf.RestoreOptions, index string, keys, rounds int,
	key, val func(int) []byte, mark func(*spf.DB) error) *spf.DB {
	b.Helper()
	db, err := spf.Open(spf.Options{PageSize: 1024, DataSlots: 1 << 15, PoolFrames: 2048, Restore: restore})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := db.CreateIndex(index)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r <= rounds; r++ {
		tx := db.Begin()
		for i := 0; i < keys; i++ {
			if r == 0 {
				err = ix.Insert(tx, key(i), val(i))
			} else {
				err = ix.Update(tx, key(i), val(i+r*keys))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			b.Fatal(err)
		}
		if r == 0 {
			if err := mark(db); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

func backupDatabase(db *spf.DB) error {
	_, err := db.BackupDatabase()
	return err
}

func payloadVal(i int) []byte { return []byte(fmt.Sprintf("value-payload-%08d", i)) }
