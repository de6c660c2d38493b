package bench

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/wal"
)

// appendPayloadSize is the record payload of the E19 append drivers — the
// same 100 bytes the seed's BenchmarkAppend used.
const appendPayloadSize = 100

// parallelAppend (E19) drives b.N appends from RunParallel workers against
// a fresh reserve-then-fill manager and verifies every record published.
func parallelAppend(b *testing.B) Result {
	m := wal.NewManager(iosim.Instant)
	payload := make([]byte, appendPayloadSize)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 1, PageID: 5, Payload: payload})
		}
	})
	b.StopTimer()
	if got := m.Stats().Appends; got != int64(b.N) {
		return Result{Err: fmt.Errorf("published %d records, want %d", got, b.N)}
	}
	return Result{}
}

// mutexWAL replicates the seed's single-mutex append protocol (one lock
// around encode+copy into a growing []byte). It exists purely as the
// before-side of E19, so the reserve-then-fill speedup stays measurable
// after the old code is gone.
type mutexWAL struct {
	mu  sync.Mutex
	buf []byte
}

var mutexWALCRC = crc32.MakeTable(crc32.Castagnoli)

func (m *mutexWAL) append(rec *wal.Record) page.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	lsn := page.LSN(len(m.buf))
	const headerSize, trailerSize = 45, 4
	total := headerSize + len(rec.Payload) + trailerSize
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(total))
	hdr[4] = byte(rec.Type)
	binary.LittleEndian.PutUint64(hdr[5:], uint64(rec.Txn))
	binary.LittleEndian.PutUint64(hdr[13:], uint64(rec.PrevLSN))
	binary.LittleEndian.PutUint64(hdr[21:], uint64(rec.PageID))
	binary.LittleEndian.PutUint64(hdr[29:], uint64(rec.PagePrevLSN))
	binary.LittleEndian.PutUint64(hdr[37:], uint64(rec.UndoNext))
	start := len(m.buf)
	m.buf = append(m.buf, hdr[:]...)
	m.buf = append(m.buf, rec.Payload...)
	crc := crc32.Checksum(m.buf[start:], mutexWALCRC)
	var tail [trailerSize]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	m.buf = append(m.buf, tail[:]...)
	return lsn
}

// mutexAppend (E19) is parallelAppend against the mutexWAL baseline.
func mutexAppend(b *testing.B) Result {
	m := &mutexWAL{buf: make([]byte, 16)}
	payload := make([]byte, appendPayloadSize)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.append(&wal.Record{Type: wal.TypeUpdate, Txn: 1, PageID: 5, Payload: payload})
		}
	})
	return Result{}
}

// groupCommit (E20) drives b.N commits from 32 concurrent goroutines,
// each appending a commit record and forcing it through ForceForCommit
// with the given window. The metric is the coalescing factor, commits per
// flush (1.0 = the seed's force-per-commit).
func groupCommit(window time.Duration) func(*testing.B) Result {
	const committers = 32
	return func(b *testing.B) Result {
		m := wal.NewManagerOpts(wal.Options{Profile: iosim.Instant, GroupCommitWindow: window})
		defer m.Close()
		var ops atomic.Int64
		ops.Store(int64(b.N))
		var wg sync.WaitGroup
		b.ResetTimer()
		for c := 0; c < committers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for ops.Add(-1) >= 0 {
					lsn := m.Append(&wal.Record{Type: wal.TypeCommit, Txn: wal.TxnID(c)})
					if err := m.ForceForCommit(lsn); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		b.StopTimer()
		var res Result
		if f := m.Stats().Flushes; f > 0 {
			res.Metric = float64(b.N) / float64(f)
		}
		return res
	}
}

// Shape of the lifecycle replay benchmarks (E32/E33): many per-page
// chains written round-robin, so consecutive records of one page sit a
// full round apart in the live log — the live replay of any single chain
// is a pointer chase scattered across the whole log, while the archived
// replay of the same chain reads one sorted, page-partitioned run span
// sequentially.
const (
	// chainPages is the number of interleaved per-page chains.
	chainPages = 128
	// chainDepth is the history depth of every chain — the number of
	// records a single-page replay applies.
	chainDepth = 256

	chainPayload = 120
)

// buildChainLog writes chainPages interleaved chains of chainDepth
// records each and flushes, returning the manager and the target page for
// single-chain replays (with its chain head).
func buildChainLog(b *testing.B) (*wal.Manager, page.ID, page.LSN) {
	b.Helper()
	m := wal.NewManager(iosim.Instant)
	payload := make([]byte, chainPayload)
	prev := make([]page.LSN, chainPages)
	for d := 0; d < chainDepth; d++ {
		typ := wal.TypeUpdate
		if d == 0 {
			typ = wal.TypeFormat
		}
		for p := 0; p < chainPages; p++ {
			prev[p] = m.Append(&wal.Record{
				Type: typ, Txn: 1,
				PageID:      page.ID(p + 1),
				PagePrevLSN: prev[p],
				Payload:     payload,
			})
		}
	}
	m.FlushAll()
	target := chainPages / 2
	return m, page.ID(target + 1), prev[target]
}

// archiveAndRecycle drains the whole flushed log through the real
// archiver pipeline (sealed segments → sorted runs), wires the archive
// fallback into the manager, and recycles every live segment — after it
// returns, every chain replay is served from archived runs.
func archiveAndRecycle(b *testing.B, m *wal.Manager) {
	b.Helper()
	st := archive.NewStore(iosim.Instant, wal.FirstLSN())
	ar := archive.New(m, st, archive.Config{SegmentBytes: 256 << 10})
	ar.SetCheckpointHorizon(m.FlushedLSN())
	if err := ar.Step(true); err != nil {
		b.Fatal(err)
	}
	m.SetArchive(st.NewReader(1, 0))
	if m.TruncatedLSN() != m.FlushedLSN() {
		b.Fatalf("recycle stopped at %d, flushed %d", m.TruncatedLSN(), m.FlushedLSN())
	}
}

// chainReplay (E32) measures one page's full-chain replay (WalkPageChain,
// the single-page-recovery read path) at equal history depth:
// archived=false chases prev pointers through the live log, archived=true
// reads the page's span of the sorted archive runs after every live
// segment has been recycled.
func chainReplay(archived bool) func(*testing.B) Result {
	return func(b *testing.B) Result {
		m, target, head := buildChainLog(b)
		defer m.Close()
		if archived {
			archiveAndRecycle(b, m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recs, err := m.WalkPageChain(head, 0, target)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != chainDepth {
				b.Fatalf("chain replayed %d records, want %d", len(recs), chainDepth)
			}
		}
		return Result{}
	}
}

// mediaRestoreReplay (E33) measures media-restore preparation at equal
// history depth: replaying every page's chain, the work a device-failure
// restore does for its whole page set. The archived variant reads each
// page's history as one sequential run span; the live variant re-seeks
// the interleaved log once per page.
func mediaRestoreReplay(archived bool) func(*testing.B) Result {
	return func(b *testing.B) Result {
		m, _, _ := buildChainLog(b)
		defer m.Close()
		if archived {
			archiveAndRecycle(b, m)
		}
		type chain struct {
			id   page.ID
			head page.LSN
		}
		var chains []chain
		m.Chains(func(id page.ID, ci wal.ChainInfo) bool {
			chains = append(chains, chain{id, ci.Head})
			return true
		})
		if len(chains) != chainPages {
			b.Fatalf("chain index covers %d pages, want %d", len(chains), chainPages)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total := 0
			for _, c := range chains {
				recs, err := m.WalkPageChain(c.head, 0, c.id)
				if err != nil {
					b.Fatal(err)
				}
				total += len(recs)
			}
			if total != chainPages*chainDepth {
				b.Fatalf("restore replayed %d records, want %d", total, chainPages*chainDepth)
			}
		}
		return Result{}
	}
}

// lifecycleRow builds E32/E33: the archived replay against the live seek
// path at equal history depth. Criterion: archived replay must be no
// slower than the live seek path (1.5x margin for runner noise), because
// repair latency must not degrade when history ages out of RAM. The
// archived sub's metric is the live/archived speedup — ≥1.0 means moving
// history into the archive never slowed its replay.
func lifecycleRow(name, what string, driver func(archived bool) func(*testing.B) Result) Row {
	return Row{
		Name: name, Procs: 1,
		Subs: []Sub{
			{Name: "archived-runs", Metric: "live/archived-speedup", Run: driver(true)},
			{Name: "live-seek-baseline", Run: driver(false)},
		},
		Check: func(rs []Result, logf func(string, ...any)) error {
			arch, live := rs[0], rs[1]
			if arch.NsPerOp <= 0 || live.NsPerOp <= 0 {
				return nil
			}
			rs[0].Metric = float64(live.NsPerOp) / float64(arch.NsPerOp)
			if arch.N <= 1 || live.N <= 1 {
				return nil
			}
			if 2*arch.NsPerOp > 3*live.NsPerOp {
				return fmt.Errorf("archived %s %dns/op slower than live seek %dns/op beyond noise",
					what, arch.NsPerOp, live.NsPerOp)
			}
			logf("%d pages x depth %d, %s: archived=%dus live=%dus (%.2fx)",
				chainPages, chainDepth, what, arch.NsPerOp/1e3, live.NsPerOp/1e3, rs[0].Metric)
			return nil
		},
	}
}
