package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Entry is one BENCH_*.json record, comparable across changes.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Ops         int     `json:"ops"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	Metric      float64 `json:"metric,omitempty"`
	MetricName  string  `json:"metric_name,omitempty"`
}

// LoadEntries reads one BENCH_*.json file.
func LoadEntries(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

// Compare is the CI regression gate: every benchmark present in a
// baseline file must exist in the fresh run, have been measured (a failed
// driver records ns/op 0), have run at the baseline's GOMAXPROCS, and be
// no slower than threshold times its baseline ns/op. The threshold is
// deliberately generous — shared CI runners are noisy — so only real
// regressions (or benchmarks rotting out of the tracked set) fail the
// gate. Fresh entries without a baseline are reported but pass: they are
// new benchmarks whose baseline lands with the change that adds them.
// The per-entry report goes to w.
func Compare(w io.Writer, freshPath string, baselinePaths []string, threshold float64) error {
	fresh, err := LoadEntries(freshPath)
	if err != nil {
		return err
	}
	freshByName := make(map[string]Entry, len(fresh))
	for _, e := range fresh {
		freshByName[e.Name] = e
	}
	var failures []string
	compared := make(map[string]bool)
	for _, bp := range baselinePaths {
		baseline, err := LoadEntries(bp)
		if err != nil {
			return err
		}
		for _, base := range baseline {
			compared[base.Name] = true
			got, ok := freshByName[base.Name]
			if !ok {
				failures = append(failures,
					fmt.Sprintf("%s: in baseline %s but missing from fresh run (benchmark rotted out of the tracked set?)", base.Name, bp))
				continue
			}
			ratio := 0.0
			if base.NsPerOp > 0 {
				ratio = got.NsPerOp / base.NsPerOp
			}
			status := "ok"
			switch {
			case got.GoMaxProcs != base.GoMaxProcs:
				status = "PROCS-MISMATCH"
				failures = append(failures,
					fmt.Sprintf("%s: measured at gomaxprocs=%d, baseline recorded at %d",
						base.Name, got.GoMaxProcs, base.GoMaxProcs))
			case base.NsPerOp > 0 && got.NsPerOp <= 0:
				status = "NOT-MEASURED"
				failures = append(failures,
					fmt.Sprintf("%s: fresh ns/op %.1f against baseline %.1f (driver failed?)",
						base.Name, got.NsPerOp, base.NsPerOp))
			case base.NsPerOp > 0 && got.NsPerOp > threshold*base.NsPerOp:
				status = "REGRESSION"
				failures = append(failures,
					fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (%.2fx > %.2fx threshold)",
						base.Name, got.NsPerOp, base.NsPerOp, ratio, threshold))
			}
			fmt.Fprintf(w, "%-55s base=%10.1f fresh=%10.1f ratio=%5.2fx  %s\n",
				base.Name, base.NsPerOp, got.NsPerOp, ratio, status)
		}
	}
	for _, e := range fresh {
		if !compared[e.Name] {
			fmt.Fprintf(w, "%-55s (new benchmark, no baseline yet)\n", e.Name)
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(w, "\nbench regression gate failed:\n")
		for _, f := range failures {
			fmt.Fprintf(w, "  - %s\n", f)
		}
		return fmt.Errorf("%d benchmark failure(s)", len(failures))
	}
	fmt.Fprintf(w, "\nbench regression gate passed (threshold %.1fx)\n", threshold)
	return nil
}
