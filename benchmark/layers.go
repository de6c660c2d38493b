package main

import (
	"time"

	"repro/spf"
)

// counters is a flat snapshot of the spf.DB.Metrics() fields the
// per-layer report uses. Deltas over a measured window cost nothing to
// collect, so every run takes them.
type counters map[string]float64

// carried names the counters that live on state a Restart hands to the
// recovered database (the data device, the log, the archive, the
// simulated I/O clocks); every other counter starts again from zero on
// the recovered instance.
var carried = map[string]bool{
	"dev.reads": true, "dev.writes": true,
	"wal.bytes": true, "wal.batches": true, "wal.waiters": true, "wal.records_read": true,
	"arch.records": true, "arch.reads": true, "arch.released": true,
	"sim_io_ns": true,
}

// snapshot reads the counters of db and of its index indexName.
func snapshot(db *spf.DB) counters {
	m := db.Metrics()
	data, log, bak := db.SimulatedIO()
	c := counters{
		"pool.hits": float64(m.Pool.Hits), "pool.misses": float64(m.Pool.Misses),
		"pool.evictions": float64(m.Pool.Evictions), "pool.validation_failures": float64(m.Pool.ValidationFailures),
		"pool.escalations": float64(m.Pool.Escalations),
		"dev.reads":        float64(m.Device.Reads), "dev.writes": float64(m.Device.Writes),
		"wal.bytes": float64(m.Log.BytesAppended), "wal.batches": float64(m.Log.GroupCommitBatches),
		"wal.waiters": float64(m.Log.GroupCommitWaiters), "wal.records_read": float64(m.Log.RecordsRead),
		"txn.aborted":     float64(m.Txns.UserAborted),
		"core.recoveries": float64(m.Recovery.Recoveries), "core.records_applied": float64(m.Recovery.RecordsApplied),
		"core.escalations": float64(m.Recovery.Escalations),
		"restore.enqueued": float64(m.Restore.Enqueued), "restore.coalesced": float64(m.Restore.Coalesced),
		"restore.promotions": float64(m.Restore.Promotions), "restore.requeues": float64(m.Restore.Requeues),
		"restore.read_retries": float64(m.Restore.ReadRetries),
		"redo.marked":          float64(m.RestartRedo.Marked), "redo.fast": float64(m.RestartRedo.FastRedos),
		"redo.fallbacks": float64(m.RestartRedo.Fallbacks),
		"maint.flushed":  float64(m.Maintenance.PagesFlushed), "maint.scrubbed": float64(m.Maintenance.PagesScrubbed),
		"maint.latent": float64(m.Maintenance.LatentFound),
		"arch.records": float64(m.Archive.RecordsArchived), "arch.reads": float64(m.Archive.Reads),
		"arch.released": float64(m.Archive.ReleasedBytes),
		"sim_io_ns":     float64(data + log + bak),
	}
	for _, ix := range m.Indexes {
		if ix.Name != indexName {
			continue
		}
		c["ix.opt_hits"] = float64(ix.OptimisticHits)
		c["ix.opt_fallbacks"] = float64(ix.OptimisticFallbacks)
		c["ix.splits"] = float64(ix.Splits)
		c["ix.bucket_splits"] = float64(ix.BucketSplits)
		c["ix.overflow_pages"] = float64(ix.OverflowPages)
	}
	return c
}

// sub returns c - o field by field.
func (c counters) sub(o counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// add accumulates o into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// restartBase is the baseline for a database produced by Restart from a
// crashed instance whose last snapshot was last: carried counters
// continue from there, the rest start at zero.
func restartBase(last counters) counters {
	b := counters{}
	for k := range carried {
		b[k] = last[k]
	}
	return b
}

// window is what a measured window leaves for the per-layer report.
type window struct {
	delta              counters // counter deltas over the window
	ops                int64    // completed client operations
	userBytes          int64    // key+value bytes of acknowledged writes
	elapsed            time.Duration
	backupPagesWritten int64
	liveSegments       int64 // WAL live segments at the end of the window
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics renders the per-layer report: counter deltas from the
// untraced window, span medians and self times from the traced legs, and
// the traced legs' throughput against the untraced window's.
func layerMetrics(w window, spans map[string]*Recorder, untracedRate, tracedRate float64) []metric {
	d := w.delta
	ops := float64(w.ops)
	med := func(name string) float64 {
		if r := spans[name]; r != nil && r.Len() > 0 {
			return us(r.Median())
		}
		return 0
	}
	secs := w.elapsed.Seconds()
	return []metric{
		{"server.get_self_us", med(spanWireGet) - med(spanEngineGet), "us"},
		{"server.put_self_us", med(spanWirePut) - med(spanEngineUpd) - med(spanCommit), "us"},
		{"engine.get_us", med(spanEngineGet), "us"},
		{"engine.update_us", med(spanEngineUpd), "us"},
		{"btree.optimistic_hit_frac", ratio(d["ix.opt_hits"], d["ix.opt_hits"]+d["ix.opt_fallbacks"]), "frac"},
		{"btree.splits", d["ix.splits"], "count"},
		{"hashindex.bucket_splits", d["ix.bucket_splits"], "count"},
		{"hashindex.overflow_pages", d["ix.overflow_pages"], "count"},
		{"buffer.hit_frac", ratio(d["pool.hits"], d["pool.hits"]+d["pool.misses"]), "frac"},
		{"buffer.misses_per_op", ratio(d["pool.misses"], ops), "count/op"},
		{"buffer.evictions_per_op", ratio(d["pool.evictions"], ops), "count/op"},
		{"buffer.validation_failures", d["pool.validation_failures"], "count"},
		{"buffer.escalations", d["pool.escalations"], "count"},
		{"storage.reads_per_op", ratio(d["dev.reads"], ops), "count/op"},
		{"storage.writes_per_op", ratio(d["dev.writes"], ops), "count/op"},
		{"storage.sim_io_ms", d["sim_io_ns"] / 1e6, "ms"},
		{"wal.commit_us", med(spanCommit), "us"},
		{"wal.commits_per_flush", ratio(d["wal.waiters"], d["wal.batches"]), "count"},
		{"wal.bytes_per_user_byte", ratio(d["wal.bytes"], float64(w.userBytes)), "ratio"},
		{"wal.live_segments", float64(w.liveSegments), "count"},
		{"wal.records_read_per_repair", ratio(d["wal.records_read"], d["core.recoveries"]), "count"},
		{"txn.aborted", d["txn.aborted"], "count"},
		{"core.recoveries", d["core.recoveries"], "count"},
		{"core.records_applied_per_recovery", ratio(d["core.records_applied"], d["core.recoveries"]), "count"},
		{"core.escalations", d["core.escalations"], "count"},
		{"restore.coalesced_frac", ratio(d["restore.coalesced"], d["restore.enqueued"]+d["restore.coalesced"]), "frac"},
		{"restore.promotions", d["restore.promotions"], "count"},
		{"restore.requeues", d["restore.requeues"], "count"},
		{"restore.read_retries", d["restore.read_retries"], "count"},
		{"restore.drain_us", med(spanDrain), "us"},
		{"recovery.restart_us", med(spanRestart), "us"},
		{"recovery.checkpoint_us", med(spanCheckpoint), "us"},
		{"recovery.pages_marked", d["redo.marked"], "count"},
		{"recovery.fast_redos", d["redo.fast"], "count"},
		{"recovery.fallbacks", d["redo.fallbacks"], "count"},
		{"backup.now_us", med(spanBackup), "us"},
		{"backup.pages_written", float64(w.backupPagesWritten), "count"},
		{"archive.records_archived", d["arch.records"], "count"},
		{"archive.reads", d["arch.reads"], "count"},
		{"archive.released_bytes", d["arch.released"], "bytes"},
		{"maintenance.pages_flushed_per_s", ratio(d["maint.flushed"], secs), "1/s"},
		{"maintenance.pages_scrubbed_per_s", ratio(d["maint.scrubbed"], secs), "1/s"},
		{"maintenance.latent_found", d["maint.latent"], "count"},
		{"trace.overhead_frac", 1 - ratio(tracedRate, untracedRate), "frac"},
	}
}
