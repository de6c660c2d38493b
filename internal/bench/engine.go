package bench

// The engine-comparison drivers, E34 point-op throughput and E35
// fault-repair latency, run side by side for every spf.IndexKind over the
// identical seeded workload. The point of the comparison is the seam, not
// the race: the two engines organize keys differently (ordered Foster
// B-tree vs linear hashing), but everything below the Engine interface —
// checksums, the page recovery index, per-page log chains, the restore
// scheduler — is shared. E34 shows both engines pay comparable per-op
// costs through that shared stack; E35 shows a persistent corruption of
// either engine's entry page (B-tree root, hash directory) is repaired
// online by the same machinery with the same zero-escalation guarantee.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/spf"
)

const (
	// engineKeys is the preloaded key population — enough to grow a
	// multi-level B-tree and drive the hash index through many split
	// rounds at the 4 KiB bench page size.
	engineKeys = 10000
	valueLen   = 64
	seed       = 42
)

// engineSetup opens a fully resident database and preloads one index of the
// given kind with the shared workload.Key population.
func engineSetup(b *testing.B, kind spf.IndexKind) (*spf.DB, *spf.Index) {
	b.Helper()
	db, err := spf.Open(spf.Options{
		PageSize:   4096,
		DataSlots:  1 << 16,
		PoolFrames: 8192,
	})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := db.CreateIndexKind("bench", kind)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, valueLen)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	const batch = 1000
	for lo := 0; lo < engineKeys; lo += batch {
		tx := db.Begin()
		for i := lo; i < lo+batch; i++ {
			if err := ix.Insert(tx, workload.Key(i), val); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
	return db, ix
}

// pointOps (E34) measures per-op cost through the Engine seam on a resident
// index: the read shape is pure point lookups (GetTo into a reused
// buffer), the mixed shape commits one single-op update transaction per
// five ops — the §5.1.5 accounting shape, where the log force dominates.
// Keys are drawn uniformly from the shared population with a fixed seed,
// so both engines replay the identical request stream.
func pointOps(kind spf.IndexKind, mixed bool) func(*testing.B) Result {
	return func(b *testing.B) Result {
		db, ix := engineSetup(b, kind)
		defer db.Close()

		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 0, valueLen)
		newVal := make([]byte, valueLen)
		for i := range newVal {
			newVal[i] = byte('A' + i%26)
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := workload.Key(rng.Intn(engineKeys))
			if mixed && i%5 == 4 {
				tx := db.Begin()
				if err := ix.Update(tx, key, newVal); err != nil {
					b.Fatal(err)
				}
				if err := db.Commit(tx); err != nil {
					b.Fatal(err)
				}
				continue
			}
			out, err := ix.GetTo(buf, key)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != valueLen {
				b.Fatalf("got %d-byte value, want %d", len(out), valueLen)
			}
		}
		b.StopTimer()
		return Result{}
	}
}

// faultRepair (E35) measures the repair-inclusive read latency after a
// persistent corruption of the engine's entry page — the B-tree root or
// the hash directory, which is the symmetric worst case: every operation
// descends through it, and losing it without single-page recovery would
// cost the whole index. Each iteration evicts the page (so the corruption
// lands on the image the next fetch reads), corrupts the stored image,
// then times one point read that must succeed via the shared online-repair
// path (detection on fetch, urgent ticket, chain replay). Every fault must
// be repaired: the run fails on any escalation, so a passing run is itself
// the parity proof that the unmodified repair machinery serves both
// engines. The metric is the repair-read p99.
func faultRepair(kind spf.IndexKind) func(*testing.B) Result {
	return func(b *testing.B) Result {
		db, ix := engineSetup(b, kind)
		defer db.Close()

		root := ix.Root()
		key := workload.Key(engineKeys / 2)
		buf := make([]byte, 0, valueLen)
		lat := make([]time.Duration, 0, b.N)

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.EvictPage(root); err != nil {
				b.Fatal(err)
			}
			if err := db.CorruptPage(root); err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			out, err := ix.GetTo(buf, key)
			if err != nil {
				b.Fatalf("read after corruption: %v", err)
			}
			lat = append(lat, time.Since(start))
			if len(out) != valueLen {
				b.Fatalf("got %d-byte value, want %d", len(out), valueLen)
			}
		}
		b.StopTimer()

		// Every injected fault must be repaired online: no escalation, and
		// a recovery for each one.
		m := db.Metrics()
		if esc := m.Recovery.Escalations + m.Pool.Escalations; esc != 0 {
			return Result{Err: fmt.Errorf("%d faults escalated past online repair", esc)}
		}
		if m.Recovery.Recoveries < int64(b.N) {
			return Result{Err: fmt.Errorf("only %d recoveries for %d injected faults", m.Recovery.Recoveries, b.N)}
		}
		return Result{Metric: float64(P99(lat).Nanoseconds())}
	}
}
