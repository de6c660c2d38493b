package bench

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
	"repro/spf"
)

// startServer opens a loopback server over db and returns the address and
// a drain-asserting stop function.
func startServer(b *testing.B, db *spf.DB, cfg server.Config) (string, func()) {
	b.Helper()
	s := server.New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	return ln.Addr().String(), func() {
		if err := s.Shutdown(10 * time.Second); err != nil {
			b.Error(err)
		}
		if err := <-done; err != nil {
			b.Error(err)
		}
	}
}

// serverThroughput (E30) measures resident GETs socket to socket: a
// preloaded, fully-resident tree served over loopback TCP to a fixed set
// of concurrent clients issuing zipfian point reads. Every byte crosses a
// real kernel socket — the number includes framing, the worker pool, the
// engine's optimistic descent, and the response write. The server-side
// request path is allocation-free for these resident hits (GetTo into
// per-connection buffers), so the cost is syscalls plus the descent. The
// metric is the round-trip p99 across all clients; the criterion is zero
// failed requests at every client count.
func serverThroughput(clients int) func(*testing.B) Result {
	return func(b *testing.B) Result {
		const keys = 10_000
		db, err := spf.Open(spf.Options{PageSize: 1024, DataSlots: 1 << 15, PoolFrames: 4096})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		ix, err := db.CreateIndex("kv")
		if err != nil {
			b.Fatal(err)
		}
		val := bytes.Repeat([]byte{'v'}, 64)
		tx := db.Begin()
		for i := 0; i < keys; i++ {
			if err := ix.Insert(tx, workload.Key(i), val); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			b.Fatal(err)
		}
		addr, stop := startServer(b, db, server.Config{})
		defer stop()

		cls := make([]*server.Client, clients)
		gens := make([]*workload.Generator, clients)
		for c := range cls {
			if cls[c], err = server.Dial(addr); err != nil {
				b.Fatal(err)
			}
			defer cls[c].Close()
			gens[c] = workload.New(workload.Config{
				Seed: int64(c) + 1, Mix: workload.Mix{Reads: 1},
				InitialKeys: keys, ZipfS: 1.2,
			})
			// Warm each connection (buffers, index cache, residency).
			if _, _, err := cls[c].Get("kv", workload.Key(c)); err != nil {
				b.Fatal(err)
			}
		}

		var next atomic.Int64
		var errs atomic.Int64
		lats := make([][]time.Duration, clients)
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, gen := cls[c], gens[c]
				my := make([]time.Duration, 0, b.N/clients+1)
				for next.Add(1) <= int64(b.N) {
					t0 := time.Now()
					_, st, err := cl.Get("kv", gen.Next().Key)
					my = append(my, time.Since(t0))
					if err != nil || st != server.StatusOK {
						errs.Add(1)
						return
					}
				}
				lats[c] = my
			}(c)
		}
		wg.Wait()
		b.StopTimer()

		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		if n := errs.Load(); n > 0 {
			return Result{Err: fmt.Errorf("%d requests failed", n)}
		}
		return Result{Metric: float64(P99(all).Nanoseconds())}
	}
}

// serveDuringRestoreDrain (E31) is E25 pushed through the serving layer:
// fail the device, run instant-restore RecoverMedia, stand a server up
// over the recovered database, and serve wire reads while the single
// background worker grinds through the bulk restore. One iteration is one
// full fail-recover-serve cycle; every read's value is verified against
// the post-backup update round, so a read served early is also served
// right.
func serveDuringRestoreDrain(b *testing.B) Result {
	const keys = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("val%08d", i)) }
	var res availabilityResult
	for iter := 0; iter < b.N; iter++ {
		b.StopTimer()
		db := loadRounds(b, spf.RestoreOptions{Workers: 1}, "kv", keys, 1, key, val, backupDatabase)
		pages := db.PageMapLen()
		db.FailDevice()

		b.StartTimer()
		recoverStart := time.Now()
		ndb, _, err := db.RecoverMedia()
		if err != nil {
			b.Fatal(err)
		}
		prep := time.Since(recoverStart)
		addr, stop := startServer(b, ndb, server.Config{})
		cl, err := server.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}

		var firstRead time.Duration
		reads, early := 0, 0
		for i := 0; i < keys; i += 37 {
			want := val(i + keys)
			t0 := time.Now()
			v, st, err := cl.Get("kv", key(i))
			if err != nil || st != server.StatusOK || !bytes.Equal(v, want) {
				b.Fatalf("key %d during drain: %q %v %v", i, v, st, err)
			}
			if firstRead == 0 {
				firstRead = time.Since(t0)
			}
			reads++
			if ndb.Metrics().Restore.Pending > 0 {
				early++
			}
		}
		for ndb.Metrics().Restore.Pending > 0 {
			time.Sleep(200 * time.Microsecond)
		}
		drain := time.Since(recoverStart)
		b.StopTimer()

		cl.Close()
		stop()
		ndb.Close()
		res = availabilityResult{
			Keys:             keys,
			Pages:            pages,
			PrepNs:           prep.Nanoseconds(),
			ReadsBeforeDrain: early,
			ReadsTotal:       reads,
			FirstReadNs:      firstRead.Nanoseconds(),
			DrainNs:          drain.Nanoseconds(),
		}
		b.StartTimer()
	}
	b.StopTimer()
	return res.result(b, "wire reads")
}
