package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/iosim"
	"repro/internal/workload"
	"repro/spf"
)

// crashSpec is the in-process crash/restart workload: cycles of
// checkpoint, backup, update-heavy single-op transactions, crash,
// restart, redo drain and verification of every acknowledged write.
type crashSpec struct {
	keys        int // preloaded keys
	poolFrames  int
	opsPerCycle int // per writer
}

// crashRestart keeps the whole B-tree resident, so each crash loses
// every page the cycle dirtied and the restart has real redo to do. The
// cycle is short (about 60 ms on the 2-vCPU reference VM) so a run
// collects a few hundred crash-to-first-read samples.
var crashRestart = crashSpec{keys: 50_000, poolFrames: 4096, opsPerCycle: 25}

func (s crashSpec) scaled(short bool) crashSpec {
	if short {
		s.keys /= 20
		s.opsPerCycle /= 4
	}
	return s
}

func (s crashSpec) options(seed int64) spf.Options {
	return spf.Options{
		PageSize:          4096,
		DataSlots:         1 << 16,
		PoolFrames:        s.poolFrames,
		GroupCommitWindow: 200 * time.Microsecond,
		Lifecycle:         spf.LifecycleOptions{Enabled: true, SegmentBytes: 64 << 10},
		DataProfile:       iosim.SSD,
		LogProfile:        iosim.SSD,
		BackupProfile:     iosim.SSD,
		Seed:              seed,
	}
}

// readFrac is workload.UpdateHeavy's read share.
var crashReadFrac = workload.UpdateHeavy.Reads / (workload.UpdateHeavy.Reads + workload.UpdateHeavy.Updates)

// crashEnv is one set-up instance of the crash/restart workload.
type crashEnv struct {
	spec   crashSpec
	db     *spf.DB
	ix     *spf.Index
	ledger *ledger
	// streams continue across cycles, so a run is one seeded stream per
	// writer however many cycles fit in the window.
	streams []*opStream
}

func (s crashSpec) setup(seed int64, keys [][]byte) (*crashEnv, error) {
	db, err := spf.Open(s.options(seed))
	if err != nil {
		return nil, err
	}
	e := &crashEnv{spec: s, db: db, ledger: newLedger(keys)}
	fail := func(err error) (*crashEnv, error) {
		_ = e.db.Close()
		return nil, err
	}
	if e.ix, err = db.CreateIndex(indexName); err != nil {
		return fail(err)
	}
	if err := preload(db, e.ix, keys); err != nil {
		return fail(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		return fail(err)
	}
	if _, _, err := db.BackupNow(); err != nil {
		return fail(err)
	}
	// Warm-up: one cycle's worth of transactions on streams of their own.
	if _, out := e.writers(nil).run(e.newStreams(seed ^ 0x5eed)); out.failed != 0 {
		return fail(fmt.Errorf("warm-up: %s", out.failures[0]))
	}
	e.streams = e.newStreams(seed)
	return e, nil
}

func (e *crashEnv) newStreams(seed int64) []*opStream {
	return streams(seed, e.spec.keys, crashReadFrac, 0)
}

// writers is one cycle's transactions: opsPerCycle single-op
// transactions (or reads) per writer, in process.
func (e *crashEnv) writers(sb []*spanBuf) clientRun {
	return clientRun{
		backend: func(int) backend { return procBackend{e.db, e.ix} },
		ledger:  e.ledger, budget: e.spec.opsPerCycle, spans: sb,
	}
}

// restartAndRead restarts the crashed db and reads back key k, which its
// owner acknowledged; crashed is when Crash returned. It returns the
// recovered database and index and the time from crashed to that read
// completing.
func restartAndRead(db *spf.DB, sb *spanBuf, l *ledger, k int, crashed time.Time, out *outcome) (*spf.DB, *spf.Index, time.Duration, error) {
	i := sb.begin(spanRestart, -1, 0)
	ndb, _, err := db.Restart()
	sb.end(i)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("restart: %w", err)
	}
	ix, err := ndb.Index(indexName)
	if err != nil {
		_ = ndb.Close()
		return nil, nil, 0, err
	}
	out.attempted++
	i = sb.begin(spanFirstRead, -1, 0)
	v, err := ix.GetTo(nil, l.keys[k])
	sb.end(i)
	firstRead := time.Since(crashed)
	if err == nil {
		err = l.check(owner(k), k, v)
	}
	if err != nil {
		out.fail("first read of %q after restart: %v", l.keys[k], err)
	}
	return ndb, ix, firstRead, nil
}

// cycle runs one checkpoint / backup / transactions / crash / restart /
// drain / verify cycle, leaving the recovered database in e. r and sb
// are per writer (sb has one more log, for the cycle's own spans); both
// may be nil. It returns the completed operations, the counter deltas of
// the instances involved, and the backup pages written.
func (e *crashEnv) cycle(r []*recs, sb []*spanBuf, out *outcome) (int64, counters, int64, error) {
	var ctl *spanBuf
	if sb != nil {
		ctl = sb[clients]
	}
	base := snapshot(e.db)
	i := ctl.begin(spanCheckpoint, -1, 0)
	_, err := e.db.Checkpoint()
	ctl.end(i)
	if err != nil {
		return 0, nil, 0, err
	}
	i = ctl.begin(spanBackup, -1, 0)
	_, rep, err := e.db.BackupNow()
	ctl.end(i)
	if err != nil {
		return 0, nil, 0, err
	}
	// The stream's own reads are verified but not timed: they run on a
	// CPU that idles through every commit window, so they time wake-ups
	// rather than the read path (see README.md).
	run := e.writers(sb)
	if r != nil {
		run.recs = newRecs()
	}
	e.ledger.takeRecent()
	ops, txOut := run.run(e.streams)
	out.merge(txOut)
	for c := range run.recs {
		r[c].write.Merge(&run.recs[c].write)
	}
	last := snapshot(e.db)
	delta := last.sub(base)

	// Collect the cycle's garbage before the crash, so that a collection
	// the transactions made due does not land inside the timed restart
	// at random (see README.md).
	runtime.GC()
	e.db.Crash()
	crashed := time.Now()
	ndb, ix, firstRead, err := restartAndRead(e.db, ctl, e.ledger, e.ledger.lastKey[0], crashed, out)
	if err != nil {
		return 0, nil, 0, err
	}
	e.db, e.ix = ndb, ix
	ops++
	if r != nil {
		r[0].probe.Add(firstRead)
	}
	i = ctl.begin(spanDrain, -1, 0)
	ndb.DrainRestore()
	ctl.end(i)
	verifyAll(ix, e.ledger, out)
	// Read back each key this cycle acknowledged, timed: the read path on
	// the recovered database.
	var buf []byte
	for _, k := range e.ledger.takeRecent() {
		out.attempted++
		t0 := time.Now()
		v, err := ix.GetTo(buf[:0], e.ledger.keys[k])
		d := time.Since(t0)
		if err == nil {
			err = e.ledger.check(owner(k), k, v)
		}
		if err != nil {
			out.fail("read-back of %q after restart: %v", e.ledger.keys[k], err)
			continue
		}
		buf = v[:0]
		if r != nil {
			r[0].read.Add(d)
		}
	}
	// The recovered instance's own work so far (restart, drain, verify)
	// belongs to this cycle too.
	delta.add(snapshot(ndb).sub(restartBase(last)))
	return ops, delta, int64(rep.Written), nil
}

// run is the crash/restart workload: set-up (repeated, median reported),
// whole cycles until the window has passed, and with cfg.trace a wire
// leg over the same stream plus traced cycles for the per-layer report.
func (s crashSpec) run(cfg runConfig) (*outcome, error) {
	s = s.scaled(cfg.short)
	keys := keyTable(s.keys)
	var setups []float64
	var e *crashEnv
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			_ = e.db.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = s.setup(cfg.seed, keys); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { _ = e.db.Close() }()

	out := &outcome{}
	r := newRecs()
	w := window{delta: counters{}}
	written := e.ledger.bytesWritten()
	t0 := time.Now()
	for deadline := t0.Add(cfg.window); time.Now().Before(deadline); {
		n, d, bw, err := e.cycle(r, nil, out)
		if err != nil {
			return nil, err
		}
		w.ops += n
		w.delta.add(d)
		w.backupPagesWritten += bw
	}
	w.elapsed = time.Since(t0)
	w.userBytes = e.ledger.bytesWritten() - written
	w.liveSegments = e.db.Metrics().Log.LiveSegments
	heap := heapMB(recBytes(r))
	all := mergeRecs(r)
	rate := float64(w.ops) / w.elapsed.Seconds()
	out.metrics, out.notes = endToEnd(medianFloat(setups), rate, all, spaceAmp(e.db, keys), heap)
	if !cfg.trace {
		return out, nil
	}

	// The traced run. Wire leg: the window's streams served over
	// loopback, one cycle's worth of operations per writer, no crash.
	t := newTracer()
	se := &servingEnv{
		spec: servingSpec{keys: s.keys, readFrac: crashReadFrac},
		db:   e.db, ix: e.ix, ledger: e.ledger,
	}
	if err := se.serve(); err != nil {
		return nil, err
	}
	wire := se.clients(se.wire)
	wire.budget, wire.spans = s.opsPerCycle, t.bufs(clients)
	_, wireOut := wire.run(se.streams(cfg.seed))
	out.merge(wireOut)
	if err := se.stopServing(); err != nil {
		return nil, err
	}
	// In-process leg: the window's streams replayed from their seed
	// through traced cycles, as many operations as the window ran
	// (capped).
	e.streams = e.newStreams(cfg.seed)
	sb := t.bufs(clients + 1)
	var traced int64
	lt0 := time.Now()
	for traced < min(w.ops, 5_000) {
		n, _, _, err := e.cycle(nil, sb, out)
		if err != nil {
			return nil, err
		}
		traced += n
	}
	tracedRate := float64(traced) / time.Since(lt0).Seconds()
	if cfg.spansPath != "" {
		if err := t.write(cfg.spansPath); err != nil {
			return nil, err
		}
	}
	out.metrics = layerMetrics(w, t.selfTimes(), rate, tracedRate)
	return out, nil
}
