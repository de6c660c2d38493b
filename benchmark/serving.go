package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/iosim"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/spf"
)

// servingSpec is a wire-serving workload: closed-loop clients over
// loopback TCP against an in-process internal/server.
type servingSpec struct {
	kind       spf.IndexKind
	keys       int     // preloaded keys
	poolFrames int     // buffer pool frames (4 KiB pages)
	readFrac   float64 // GET share; the rest are PUTs
	zipfS      float64 // zipf skew of key choice; 0 = uniform
	// backupEvery is spf.Options.BackupEveryNUpdates (0 = off).
	backupEvery int
	// probeEvery runs a probe inline in client 0 after every probeEvery
	// of its operations; faults makes each probe inject a device fault
	// before it fetches the page back.
	probeEvery int
	faults     bool
	warmOps    int // per client, part of set-up
}

// residentBTree is wire traffic to a B-tree whose data fits in the pool,
// with spfserver's defaults: maintenance on, 200µs group commit. Its
// probes only evict and refetch — the clean-miss control for the
// repair probes of faultyHash.
var residentBTree = servingSpec{
	kind: spf.KindBTree, keys: 100_000, poolFrames: 8192,
	readFrac: 0.90, zipfS: 1.2, probeEvery: 25, warmOps: 10_000,
}

// faultyHash is wire traffic to a hash index about four times the pool,
// with fault probes: the paper's single-page failure under live load.
var faultyHash = servingSpec{
	kind: spf.KindHash, keys: 80_000, poolFrames: 512,
	readFrac: 0.95, backupEvery: 32, probeEvery: 100, faults: true, warmOps: 10_000,
}

// probeFaults is the cycle of injected fault kinds; all are sticky, so
// only a repair to a fresh slot makes the page readable again.
var probeFaults = []spf.FaultKind{
	spf.FaultSilentCorruption, spf.FaultReadError, spf.FaultZeroPage,
}

func (s servingSpec) scaled(short bool) servingSpec {
	if short {
		s.keys /= 20
		s.poolFrames = max(s.poolFrames/20, 64)
		s.warmOps /= 20
	}
	return s
}

func (s servingSpec) options(seed int64) spf.Options {
	return spf.Options{
		PageSize:            4096,
		DataSlots:           1 << 16,
		PoolFrames:          s.poolFrames,
		GroupCommitWindow:   200 * time.Microsecond,
		BackupEveryNUpdates: s.backupEvery,
		Maintenance:         spf.MaintenanceOptions{Enabled: true},
		DataProfile:         iosim.SSD,
		LogProfile:          iosim.SSD,
		BackupProfile:       iosim.SSD,
		IndexKind:           s.kind,
		Seed:                seed,
	}
}

// servingEnv is one set-up instance of a serving workload.
type servingEnv struct {
	spec    servingSpec
	db      *spf.DB
	ix      *spf.Index
	srv     *server.Server
	serving chan error
	conns   []*server.Client
	ledger  *ledger
	rng     *rand.Rand // probe victim choice
}

// setup opens the database, preloads it, takes the first backup, starts
// the server, connects the clients and warms them up.
func (s servingSpec) setup(seed int64, keys [][]byte) (*servingEnv, error) {
	db, err := spf.Open(s.options(seed))
	if err != nil {
		return nil, err
	}
	e := &servingEnv{spec: s, db: db, ledger: newLedger(keys), rng: rand.New(rand.NewSource(seed))}
	fail := func(err error) (*servingEnv, error) {
		e.teardown()
		return nil, err
	}
	if e.ix, err = db.CreateIndexKind(indexName, s.kind); err != nil {
		return fail(err)
	}
	if err := preload(db, e.ix, keys); err != nil {
		return fail(err)
	}
	if _, _, err := db.BackupNow(); err != nil {
		return fail(err)
	}
	if err := e.serve(); err != nil {
		return fail(err)
	}
	// Warm-up: the window's loop, on streams of its own.
	run := e.clients(e.wire)
	run.budget = s.warmOps
	if _, out := run.run(e.streams(seed ^ 0x5eed)); out.failed != 0 {
		return fail(fmt.Errorf("warm-up: %s", out.failures[0]))
	}
	return e, nil
}

// serve starts the server on a loopback port and dials the clients.
func (e *servingEnv) serve() error {
	e.srv = server.New(e.db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.serving = make(chan error, 1)
	go func() { e.serving <- e.srv.Serve(ln) }()
	for c := 0; c < clients; c++ {
		cl, err := server.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		e.conns = append(e.conns, cl)
	}
	return nil
}

// stopServing closes the clients and drains the server.
func (e *servingEnv) stopServing() error {
	for _, cl := range e.conns {
		cl.Close()
	}
	e.conns = nil
	if e.srv == nil {
		return nil
	}
	err := e.srv.Shutdown(10 * time.Second)
	if serr := <-e.serving; err == nil {
		err = serr
	}
	e.srv = nil
	return err
}

func (e *servingEnv) teardown() {
	_ = e.stopServing()
	_ = e.db.Close()
}

func (e *servingEnv) wire(c int) backend { return wireBackend{e.conns[c]} }

func (e *servingEnv) inProcess(int) backend { return procBackend{e.db, e.ix} }

func (e *servingEnv) streams(seed int64) []*opStream {
	return streams(seed, e.spec.keys, e.spec.readFrac, e.spec.zipfS)
}

// clients is a leg of this workload's clients on the given backend, with
// its probes if it has any.
func (e *servingEnv) clients(be func(int) backend) clientRun {
	run := clientRun{backend: be, ledger: e.ledger}
	if e.spec.probeEvery > 0 {
		run.probeEvery, run.probe = e.spec.probeEvery, e.probe
	}
	return run
}

// probeCounters are the detection and repair counters a fault probe must
// move to count as a repair.
func probeCounters(db *spf.DB) (detected, repaired int64) {
	m := db.Metrics()
	return m.Pool.ValidationFailures + m.Device.ReadErrors, m.Recovery.Recoveries + m.Restore.Repaired
}

// probe forces a seeded page out of the pool and times DB.Fetch+Release
// bringing it back. With faults, a sticky device fault is injected on
// the page's slot first, so the fetch runs detect → urgent repair →
// chain replay; the probe counts only if both a detection counter and a
// repair counter moved.
func (e *servingEnv) probe(n int, r *recs, sb *spanBuf, out *outcome) {
	out.attempted++
	root := sb.begin(spanProbe, -1, uint64(n))
	defer sb.end(root)
	var det0, rep0 int64
	if e.spec.faults {
		det0, rep0 = probeCounters(e.db)
	}
	id, kind, err := e.pickVictim(n)
	if err != nil {
		out.fail("probe %d: %v", n, err)
		return
	}
	f := sb.begin(spanFetch, root, uint64(n))
	t0 := time.Now()
	h, err := e.db.Fetch(id)
	if err == nil {
		h.Release()
	}
	d := time.Since(t0)
	sb.end(f)
	if err != nil {
		out.fail("probe %d: fetch of page %d after %s: %v", n, id, kind, err)
		return
	}
	if e.spec.faults {
		det1, rep1 := probeCounters(e.db)
		if det1 == det0 || rep1 == rep0 {
			out.fail("probe %d: %s on page %d not detected and repaired (detections +%d, repairs +%d)",
				n, kind, id, det1-det0, rep1-rep0)
			return
		}
	}
	if r != nil {
		r.probe.Add(d)
	}
}

// pickVictim chooses a seeded page that has a device slot, injects the
// probe's fault on it (faulty workloads only) and evicts it. A page that
// is pinned at that instant is skipped for another: the probe needs a
// page it can force out, not a particular one.
func (e *servingEnv) pickVictim(n int) (spf.PageID, spf.FaultKind, error) {
	kind := storage.FaultNone
	if e.spec.faults {
		kind = probeFaults[n%len(probeFaults)]
	}
	pages := e.db.Pages()
	for attempt := 0; attempt < 64; attempt++ {
		id := pages[e.rng.Intn(len(pages))]
		if _, ok := e.db.PhysicalSlot(id); !ok {
			continue
		}
		if err := e.db.InjectPageFault(id, kind, true); err != nil {
			return 0, kind, err
		}
		err := e.db.EvictPage(id)
		if err == nil {
			return id, kind, nil
		}
		_ = e.db.InjectPageFault(id, storage.FaultNone, false) // clear it again
		if !errors.Is(err, buffer.ErrPinned) {
			return 0, kind, err
		}
	}
	return 0, kind, errors.New("no evictable page found")
}

// run is the serving workload: set-up (repeated, median reported), the
// measured window, the read-back of every acknowledged write, and with
// cfg.trace the traced legs and the per-layer report.
func (s servingSpec) run(cfg runConfig) (*outcome, error) {
	s = s.scaled(cfg.short)
	keys := keyTable(s.keys)
	var setups []float64
	var e *servingEnv
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.teardown()
		}
		runtime.GC() // start every set-up from a collected heap
		t0 := time.Now()
		var err error
		if e, err = s.setup(cfg.seed, keys); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { e.teardown() }()

	// The measured window.
	r := newRecs()
	run := e.clients(e.wire)
	run.recs = r
	before, written := snapshot(e.db), e.ledger.bytesWritten()
	t0 := time.Now()
	run.deadline = t0.Add(cfg.window)
	ops, out := run.run(e.streams(cfg.seed))
	w := window{ops: ops, elapsed: time.Since(t0)}
	w.delta = snapshot(e.db).sub(before)
	heap := heapMB(recBytes(r))
	all := mergeRecs(r)
	w.liveSegments = e.db.Metrics().Log.LiveSegments
	w.userBytes = e.ledger.bytesWritten() - written

	// Every acknowledged write must read back over the wire.
	for c := 0; c < clients; c++ {
		verifyAcked(c, e.wire(c), e.ledger, out)
	}

	rate := float64(ops) / w.elapsed.Seconds()
	out.metrics, out.notes = endToEnd(medianFloat(setups), rate, all, spaceAmp(e.db, keys), heap)
	if !cfg.trace {
		return out, nil
	}

	// The traced run: replay each client's stream from the window's seed,
	// over the wire and then in process, with spans.
	t := newTracer()
	budget := int(min(ops/clients, 40_000))
	run = e.clients(e.wire)
	run.budget, run.spans = budget, t.bufs(clients)
	lt0 := time.Now()
	traced, wireOut := run.run(e.streams(cfg.seed))
	tracedRate := float64(traced) / time.Since(lt0).Seconds()
	out.merge(wireOut)
	if err := e.stopServing(); err != nil {
		return nil, err
	}
	run = e.clients(e.inProcess)
	run.budget, run.spans = budget, t.bufs(clients)
	_, procOut := run.run(e.streams(cfg.seed))
	out.merge(procOut)
	db, err := lifecycleEpilogue(e.db, t.bufs(1)[0], e.ledger, out)
	if err != nil {
		return nil, err
	}
	e.db = db
	if cfg.spansPath != "" {
		if err := t.write(cfg.spansPath); err != nil {
			return nil, err
		}
	}
	out.metrics = layerMetrics(w, t.selfTimes(), rate, tracedRate)
	return out, nil
}

// spaceAmp is mapped pages × page size ÷ live user bytes.
func spaceAmp(db *spf.DB, keys [][]byte) float64 {
	live := float64(len(keys)) * float64(len(keys[0])+valueLen)
	return float64(db.Metrics().Pages) * 4096 / live
}

// gatedTail is the tail quantile the end-to-end metrics report. On the
// 2-vCPU reference VM a p99 of tens of microseconds is set by host
// scheduling: across ten runs its spread reached 0.4-0.6 of its median
// while the p90 held within the 0.25 bound. The p99 is still printed,
// with its sample count, in the report's notes.
const gatedTail = 0.90

// endToEnd renders the end-to-end report shared by every workload, and
// a note per timing with its sample count and where its tails sit.
func endToEnd(setupS, opsPerS float64, r *recs, spaceAmp, heap float64) ([]metric, []string) {
	rd, wr, pr := r.read.Summarize(gatedTail), r.write.Summarize(gatedTail), r.probe.Summarize(gatedTail)
	return []metric{
			{"setup_s", setupS, "s"},
			{"ops_per_s", opsPerS, "1/s"},
			{"read_p50_us", us(rd.P50), "us"},
			{"read_p90_us", us(rd.Tail), "us"},
			{"write_mean_us", us(r.write.Mean()), "us"},
			{"write_p90_us", us(wr.Tail), "us"},
			{"probe_p50_us", us(pr.P50), "us"},
			{"probe_p90_us", us(pr.Tail), "us"},
			{"space_amp", spaceAmp, "ratio"},
			{"heap_mb", heap, "MiB"},
		}, []string{
			rd.describe("read"), r.read.Summarize(0.99).describe("read"),
			wr.describe("write"), r.write.Summarize(0.99).describe("write"),
			pr.describe("probe"), r.probe.Summarize(0.99).describe("probe"),
		}
}

// lifecycleEpilogue is the tail of every serving workload's traced run:
// a checkpoint, a backup, a crash, a restart with a timed first read of
// acknowledged data, the redo drain and a full verification — so the
// run's spans cover every layer on that workload's data. It returns the
// recovered database (open) in place of db.
func lifecycleEpilogue(db *spf.DB, sb *spanBuf, l *ledger, out *outcome) (*spf.DB, error) {
	i := sb.begin(spanCheckpoint, -1, 0)
	_, err := db.Checkpoint()
	sb.end(i)
	if err != nil {
		return nil, err
	}
	i = sb.begin(spanBackup, -1, 0)
	_, _, err = db.BackupNow()
	sb.end(i)
	if err != nil {
		return nil, err
	}
	db.Crash()
	ndb, ix, _, err := restartAndRead(db, sb, l, l.lastKey[0], time.Now(), out)
	if err != nil {
		return nil, err
	}
	i = sb.begin(spanDrain, -1, 0)
	ndb.DrainRestore()
	sb.end(i)
	verifyAll(ix, l, out)
	return ndb, nil
}
