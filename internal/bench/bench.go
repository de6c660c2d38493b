// Package bench is the engine benchmark registry (E17–E35): one table of
// rows, each with its drivers, the GOMAXPROCS its committed baseline was
// recorded at, and its shape criteria. The root bench_test.go runs the
// table under `go test -bench` (honouring -cpu), and `spfbench -benchjson`
// runs the same table through Measure, pinning each row to its Procs, so
// the numbers in BENCH_*.json always measure exactly what CI smoke-tests.
// Adding a benchmark means adding one row to Rows.
package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

// Row is one benchmark of the registry.
type Row struct {
	// Name is the benchmark name without its "Benchmark" prefix, e.g.
	// "E24OnDemandRestoreLatency".
	Name string
	// Procs is the GOMAXPROCS Measure pins the row to: the value its
	// committed baseline was recorded at.
	Procs int
	// Subs are the row's variants, measured in order.
	Subs []Sub
	// Check, when set, runs after every sub and reports a violation of a
	// criterion across subs (a sub's own criteria come back in its
	// Result.Err). rs is indexed like Subs; a sub that did not run
	// (filtered out by -bench, or failed) has N == 0. Check may fill
	// metrics derived across subs into rs. logf receives a summary line.
	Check func(rs []Result, logf func(format string, args ...any)) error
}

// Sub is one variant of a row.
type Sub struct {
	// Name is the sub-benchmark name; "" for a row with a single variant,
	// which then runs directly under the row's name.
	Name string
	// Metric is the JSON metric_name of the sub; "" when it reports none.
	Metric string
	// Run is the driver. It fills Result.Metric and Result.Err; the
	// runner fills the rest.
	Run func(b *testing.B) Result
}

// Result is what one run of a sub reports.
type Result struct {
	// N is the iteration count of the final run; 0 when the sub did not
	// run or its driver failed.
	N int
	// NsPerOp is the final run's time per iteration.
	NsPerOp int64
	// Metric is the value of the sub's Metric.
	Metric float64
	// Err is a violation of the sub's own criterion on the finished run,
	// which fails the run like a failed driver but keeps its reason under
	// -benchjson. Failures while driving go through b.Fatal or b.Error.
	Err error
}

// EntryName is the BENCH_*.json name of a row's sub.
func (r Row) EntryName(s Sub) string {
	if s.Name == "" {
		return "Benchmark" + r.Name
	}
	return "Benchmark" + r.Name + "/" + s.Name
}

// run runs one sub's driver under b, records its result with N and ns/op
// in *res, and fails b when the result violates the sub's criterion.
func run(b *testing.B, s Sub, res *Result) {
	*res = s.Run(b)
	if res.Err == nil && b.Failed() {
		// A driver that reported with b.Error at N > 1 would otherwise
		// leave testing.Benchmark a normal-looking result.
		res.Err = errors.New("driver reported an error")
	}
	res.N = b.N
	res.NsPerOp = b.Elapsed().Nanoseconds() / int64(b.N)
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	// Metrics derived by Check are still zero here; report only what the
	// driver measured.
	if s.Metric != "" && res.Metric != 0 {
		b.ReportMetric(res.Metric, s.Metric)
	}
}

// Bench runs the row under `go test -bench`: every named sub as a
// sub-benchmark at whatever -cpu the test binary chose, then Check.
func (r Row) Bench(b *testing.B) {
	rs := make([]Result, len(r.Subs))
	for i, s := range r.Subs {
		if s.Name == "" {
			run(b, s, &rs[i])
			continue
		}
		b.Run(s.Name, func(b *testing.B) { run(b, s, &rs[i]) })
	}
	if r.Check != nil {
		if err := r.Check(rs, b.Logf); err != nil {
			b.Fatal(err)
		}
	}
}

// Measure runs rows the way the regression gate records baselines: each
// sub under testing.Benchmark at its row's Procs, labelled with its entry
// name for profiles, then the row's Check. It returns one entry per sub
// and an error naming every row whose driver failed or whose Check
// rejected the results; a failed sub's entry carries ops 0.
func Measure(rows []Row, logf func(format string, args ...any)) ([]Entry, error) {
	var entries []Entry
	var failures []error
	for _, r := range rows {
		prev := runtime.GOMAXPROCS(r.Procs)
		rs := make([]Result, len(r.Subs))
		brs := make([]testing.BenchmarkResult, len(r.Subs))
		for i, s := range r.Subs {
			name := r.EntryName(s)
			pprof.Do(context.Background(), pprof.Labels("bench", name), func(context.Context) {
				brs[i] = testing.Benchmark(func(b *testing.B) { run(b, s, &rs[i]) })
			})
			if brs[i].N == 0 {
				err := rs[i].Err
				if err == nil {
					err = errors.New("driver failed")
				}
				failures = append(failures, fmt.Errorf("%s: %w", name, err))
				rs[i] = Result{}
				continue
			}
			rs[i].N, rs[i].NsPerOp = brs[i].N, brs[i].NsPerOp()
		}
		if r.Check != nil {
			if err := r.Check(rs, logf); err != nil {
				failures = append(failures, fmt.Errorf("Benchmark%s: %w", r.Name, err))
			}
		}
		runtime.GOMAXPROCS(prev)
		for i, s := range r.Subs {
			entries = append(entries, Entry{
				Name:    r.EntryName(s),
				NsPerOp: float64(brs[i].NsPerOp()), AllocsPerOp: brs[i].AllocsPerOp(),
				Ops: brs[i].N, GoMaxProcs: r.Procs,
				MetricName: s.Metric, Metric: rs[i].Metric,
			})
		}
	}
	return entries, errors.Join(failures...)
}

// P99 returns the 99th-percentile latency: the sample at 0-based rank
// ⌊0.99·n⌋ in ascending order, so with at most 100 samples the maximum.
// It sorts lat in place and returns 0 when lat is empty.
func P99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)*99/100]
}
