package bench

import (
	"time"

	"repro/spf"
)

// Rows returns the registry, one row per engine claim; ARCHITECTURE.md's
// bench table states each claim and its criterion. Every row's Procs is
// the GOMAXPROCS its committed BENCH_*.json baseline was recorded at: 8
// for the parallelism-dependent B-tree rows, whose disjoint shape
// overlaps buffer-miss stalls across workers, and 1 for the rest.
func Rows() []Row {
	return []Row{
		{Name: "E17ParallelFetchHit", Procs: 1, Subs: []Sub{{Run: fetchHit}}},
		{Name: "E18ParallelFetchMissRecover", Procs: 1, Subs: []Sub{{Run: fetchMissRecover}}},
		{Name: "E19ParallelAppend", Procs: 1, Subs: []Sub{
			{Name: "reserve-fill", Run: parallelAppend},
			{Name: "mutex-baseline", Run: mutexAppend},
		}},
		{Name: "E20GroupCommitThroughput", Procs: 1, Subs: []Sub{
			{Name: "window=0s", Metric: "commits/flush", Run: groupCommit(0)},
			{Name: "window=50µs", Metric: "commits/flush", Run: groupCommit(50 * time.Microsecond)},
			{Name: "window=500µs", Metric: "commits/flush", Run: groupCommit(500 * time.Microsecond)},
		}},
		{Name: "E21AsyncWriteBack", Procs: 1, Subs: []Sub{
			{Name: "sync", Metric: "writes/update", Run: writeBack(false)},
			{Name: "async", Metric: "writes/update", Run: writeBack(true)},
		}},
		{Name: "E22ScrubCampaignOverhead", Procs: 1, Subs: []Sub{
			{Name: "off", Run: scrubOverhead(0)},
			{Name: "on", Metric: "pages-scrubbed", Run: scrubOverhead(50000)},
		}},
		{Name: "E23ParallelTreeOps", Procs: 8, Subs: []Sub{
			{Name: "disjoint/latch-coupled", Run: parallelOps(false, false, true)},
			{Name: "disjoint/global-mutex", Run: parallelOps(false, true, true)},
			{Name: "contended/latch-coupled", Run: parallelOps(true, false, true)},
			{Name: "contended/global-mutex", Run: parallelOps(true, true, true)},
		}},
		{Name: "E24OnDemandRestoreLatency", Procs: 1, Subs: []Sub{
			{Name: "priority", Metric: "p99-ns", Run: onDemandLatency(false)},
			{Name: "fifo-baseline", Metric: "p99-ns", Run: onDemandLatency(true)},
		}, Check: onDemandCheck},
		{Name: "E25MediaRecoveryAvailability", Procs: 1, Subs: []Sub{{Metric: "reads-before-drain", Run: mediaAvailability}}},
		{Name: "E26RestartFirstReadLatency", Procs: 1, Subs: []Sub{
			{Name: "instant", Metric: "first-read-ns", Run: firstReadLatency(false)},
			{Name: "full-redo-baseline", Metric: "first-read-ns", Run: firstReadLatency(true)},
		}, Check: restartCheck},
		{Name: "E27ParallelRedoDrain", Procs: 1, Subs: []Sub{
			{Name: "workers=1", Metric: "drain-ns", Run: redoDrain(1)},
			{Name: "workers=4", Metric: "drain-ns", Run: redoDrain(4)},
		}, Check: redoDrainCheck},
		{Name: "E28ResidentReadThroughput", Procs: 8, Subs: []Sub{
			{Name: "zipfian/optimistic", Metric: "optimistic-hit-fraction", Run: residentReads(true, true)},
			{Name: "zipfian/latched", Metric: "optimistic-hit-fraction", Run: residentReads(true, false)},
			{Name: "uniform/optimistic", Metric: "optimistic-hit-fraction", Run: residentReads(false, true)},
			{Name: "uniform/latched", Metric: "optimistic-hit-fraction", Run: residentReads(false, false)},
		}},
		// E29: the E23 mixed workload on the latch-coupled tree with the
		// optimistic descent on vs off. Writers bump frame versions
		// constantly, so optimistic readers keep falling back; the pair
		// shows the fallback costs no more than the pure latched path.
		{Name: "E29MixedFallback", Procs: 8, Subs: []Sub{
			{Name: "contended/optimistic", Run: parallelOps(true, false, true)},
			{Name: "contended/latched", Run: parallelOps(true, false, false)},
			{Name: "disjoint/optimistic", Run: parallelOps(false, false, true)},
			{Name: "disjoint/latched", Run: parallelOps(false, false, false)},
		}},
		{Name: "E30ServerThroughput", Procs: 1, Subs: []Sub{
			{Name: "clients=1", Metric: "p99-ns", Run: serverThroughput(1)},
			{Name: "clients=16", Metric: "p99-ns", Run: serverThroughput(16)},
			{Name: "clients=64", Metric: "p99-ns", Run: serverThroughput(64)},
		}},
		{Name: "E31ServeDuringRestoreDrain", Procs: 1, Subs: []Sub{{Metric: "reads-before-drain", Run: serveDuringRestoreDrain}}},
		lifecycleRow("E32ArchivedChainReplay", "chain replay", chainReplay),
		lifecycleRow("E33MediaRestoreReplay", "restore replay", mediaRestoreReplay),
		{Name: "E34EnginePointOps", Procs: 1, Subs: []Sub{
			{Name: "btree/read", Run: pointOps(spf.KindBTree, false)},
			{Name: "btree/mixed", Run: pointOps(spf.KindBTree, true)},
			{Name: "hash/read", Run: pointOps(spf.KindHash, false)},
			{Name: "hash/mixed", Run: pointOps(spf.KindHash, true)},
		}},
		{Name: "E35EngineFaultRepair", Procs: 1, Subs: []Sub{
			{Name: "btree", Metric: "p99-ns", Run: faultRepair(spf.KindBTree)},
			{Name: "hash", Metric: "p99-ns", Run: faultRepair(spf.KindHash)},
		}},
	}
}
