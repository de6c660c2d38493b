package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRegistryMatchesBaselines pins the registry to the committed
// baselines: names are unique, and every BENCH_*.json entry names a
// registry sub recorded at the row's Procs with the sub's metric. A
// renamed row or sub fails here, not only in the CI gate job.
func TestRegistryMatchesBaselines(t *testing.T) {
	type sub struct {
		procs  int
		metric string
	}
	subs := map[string]sub{}
	rows := map[string]bool{}
	for _, r := range Rows() {
		if rows[r.Name] {
			t.Errorf("duplicate row %s", r.Name)
		}
		rows[r.Name] = true
		if r.Procs < 1 {
			t.Errorf("%s: Procs %d, want the baseline's GOMAXPROCS", r.Name, r.Procs)
		}
		for _, s := range r.Subs {
			if s.Name == "" && len(r.Subs) != 1 {
				t.Errorf("%s: an unnamed sub must be the row's only sub", r.Name)
			}
			name := r.EntryName(s)
			if _, dup := subs[name]; dup {
				t.Errorf("duplicate sub %s", name)
			}
			subs[name] = sub{r.Procs, s.Metric}
		}
	}
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("found no committed BENCH_*.json baselines")
	}
	for _, p := range paths {
		entries, err := LoadEntries(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			s, ok := subs[e.Name]
			if !ok {
				t.Errorf("%s: %s names no registry sub", p, e.Name)
				continue
			}
			if s.procs != e.GoMaxProcs {
				t.Errorf("%s: Procs %d, baseline recorded at gomaxprocs %d", e.Name, s.procs, e.GoMaxProcs)
			}
			if s.metric != e.MetricName {
				t.Errorf("%s: metric %q, baseline has %q", e.Name, s.metric, e.MetricName)
			}
		}
	}
}

func writeEntries(t *testing.T, name string, entries ...Entry) string {
	t.Helper()
	data, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := Entry{Name: "BenchmarkX/a", NsPerOp: 100, Ops: 10, GoMaxProcs: 1}
	with := func(f func(*Entry)) Entry {
		e := base
		f(&e)
		return e
	}
	for _, tc := range []struct {
		name  string
		fresh []Entry
		fail  string // "" when the gate passes
	}{
		{"within threshold", []Entry{with(func(e *Entry) { e.NsPerOp = 290 })}, ""},
		{"new row without baseline", []Entry{base, {Name: "BenchmarkY", NsPerOp: 5, GoMaxProcs: 1}}, ""},
		{"missing row", []Entry{{Name: "BenchmarkY", NsPerOp: 5, GoMaxProcs: 1}}, "missing from fresh run"},
		{"driver failed", []Entry{with(func(e *Entry) { e.NsPerOp, e.Ops = 0, 0 })}, "driver failed"},
		{"procs mismatch", []Entry{with(func(e *Entry) { e.GoMaxProcs = 2 })}, "gomaxprocs=2"},
		{"over threshold", []Entry{with(func(e *Entry) { e.NsPerOp = 301 })}, "threshold"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := Compare(&out, writeEntries(t, "fresh.json", tc.fresh...),
				[]string{writeEntries(t, "base.json", base)}, 3)
			if tc.fail == "" {
				if err != nil {
					t.Fatalf("gate failed: %v\n%s", err, &out)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed, want a failure\n%s", &out)
			}
			if !strings.Contains(out.String(), "  - "+base.Name+": ") || !strings.Contains(out.String(), tc.fail) {
				t.Fatalf("failure does not name %s with %q:\n%s", base.Name, tc.fail, &out)
			}
		})
	}
}

func TestP99(t *testing.T) {
	samples := func(n int) []time.Duration {
		lat := make([]time.Duration, n)
		for i := range lat {
			lat[i] = time.Duration(n - i) // descending: P99 must sort
		}
		return lat
	}
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{
		{0, 0},
		{1, 1},     // sorted[0]
		{100, 100}, // sorted[99], the maximum
		{101, 100}, // sorted[99], one below the maximum
	} {
		if got := P99(samples(tc.n)); got != tc.want {
			t.Errorf("P99 of %d samples = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestMeasureReportsFailedRows checks the -benchjson runner: a driver
// that fails (by b.Fatal on its probe run, or by b.Error on a later, larger
// run) and a row whose Check rejects its results all come back as errors
// naming the row, a failed sub's entry records no measurement, and each
// row runs at its Procs with the caller's GOMAXPROCS restored after.
func TestMeasureReportsFailedRows(t *testing.T) {
	if bt := flag.Lookup("test.benchtime"); bt != nil && strings.HasSuffix(bt.Value.String(), "x") {
		t.Skip("a fixed -benchtime iteration count never grows b.N past the probe run")
	}
	var procs int
	rows := []Row{
		{Name: "Fails", Procs: 1, Subs: []Sub{{Run: func(b *testing.B) Result {
			b.Fatal("driver gave up")
			return Result{}
		}}}},
		{Name: "ErrorsLate", Procs: 1, Subs: []Sub{{Run: func(b *testing.B) Result {
			if b.N > 1 {
				b.Error("driver hit an error")
			}
			return Result{}
		}}}},
		{Name: "Shape", Procs: 3, Subs: []Sub{{Name: "a", Metric: "m", Run: func(b *testing.B) Result {
			procs = runtime.GOMAXPROCS(0)
			return Result{Metric: 7}
		}}}, Check: func(rs []Result, _ func(string, ...any)) error {
			return errors.New("criterion missed")
		}},
	}
	before := runtime.GOMAXPROCS(0)
	entries, err := Measure(rows, t.Logf)
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Errorf("GOMAXPROCS left at %d, want %d restored", got, before)
	}
	if procs != 3 {
		t.Errorf("row ran at GOMAXPROCS %d, want its Procs 3", procs)
	}
	if err == nil || !strings.Contains(err.Error(), "BenchmarkFails: driver failed") ||
		!strings.Contains(err.Error(), "BenchmarkErrorsLate: driver reported an error") ||
		!strings.Contains(err.Error(), "BenchmarkShape: criterion missed") {
		t.Fatalf("Measure error %v does not name all three failed rows", err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	for _, e := range entries[:2] {
		if e.Ops != 0 || e.NsPerOp != 0 || e.GoMaxProcs != 1 {
			t.Errorf("failed entry %+v, want ops and ns/op 0 at gomaxprocs 1", e)
		}
	}
	if e := entries[2]; e.Name != "BenchmarkShape/a" || e.Ops == 0 || e.Metric != 7 || e.MetricName != "m" || e.GoMaxProcs != 3 {
		t.Errorf("measured entry %+v", e)
	}
}
