// Command spfbenchmark is the repository benchmark: seeded workloads
// against an in-process spf.DB on the simulated in-memory storage device
// (no fsync), each checked for correctness and reported as one JSON
// line of end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1). Build and run it through benchmark/run.sh from the
// repository root; README.md in this directory defines every workload
// and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// clients is the closed-loop concurrency of every workload: one client
// connection (or writer goroutine) per core of the 2-core reference box.
const clients = 2

// indexName is the one index every workload uses.
const indexName = "kv"

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last setup is the one measured.
const setupRepeats = 3

// metric is one named, unit-labelled figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// runConfig is what one invocation asks of a workload.
type runConfig struct {
	seed      int64
	window    time.Duration
	trace     bool
	spansPath string // where a traced run writes its spans ("" = nowhere)
	// short shrinks datasets and warm-up for the package's own tests.
	short bool
}

// outcome is what a workload run reports back.
type outcome struct {
	attempted int64
	failed    int64
	failures  []string // the first few failure messages
	metrics   []metric
	notes     []string // printed with the human-readable report
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds a client's tally into o.
func (o *outcome) merge(c *outcome) {
	o.attempted += c.attempted
	o.failed += c.failed
	for _, f := range c.failures {
		if len(o.failures) < 8 {
			o.failures = append(o.failures, f)
		}
	}
}

// workloadDef names a workload and the function that runs it.
type workloadDef struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{"resident-btree", residentBTree.run},
	{"faulty-hash", faultyHash.run},
	{"crash-restart", crashRestart.run},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// heapMB is the post-GC heap in use, less the benchmark's own sample
// buffers.
func heapMB(own int64) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-own) / (1 << 20)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: resident-btree, faulty-hash or crash-restart")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 adds the traced run and reports per-layer metrics")
		spansDir = flag.String("spans-dir", ".bench_build/spans", "directory a traced run writes its spans into")
	)
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "spfbenchmark: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if cfg.trace && *spansDir != "" {
		cfg.spansPath = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spfbenchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res := jsonResult{
		Correct:   out.failed == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(out.metrics)),
	}
	for _, m := range out.metrics {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	printHuman(w.name, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spfbenchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printHuman prints one "name value unit" line per metric, then any
// failures, ahead of the JSON result line.
func printHuman(workload string, out *outcome) {
	ms := append([]metric(nil), out.metrics...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (simulated in-memory device, no fsync): %d ops attempted, %d failed\n",
		workload, out.attempted, out.failed)
	for _, m := range ms {
		fmt.Fprintf(&b, "%-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	for _, f := range out.failures {
		fmt.Fprintf(&b, "FAILED: %s\n", f)
	}
	fmt.Print(b.String())
}
