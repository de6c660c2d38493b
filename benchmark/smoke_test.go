package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tracedLayers lists the spans every traced run must produce, whatever
// the workload.
var tracedLayers = []string{
	spanWireGet, spanWirePut, spanOpGet, spanOpPut, spanEngineGet, spanEngineUpd,
	spanCommit, spanCheckpoint, spanBackup, spanRestart, spanFirstRead, spanDrain,
}

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload on shrunken data, untraced and traced,
// and checks that each reports every metric BENCHMARK.json names with
// its unit, that no operation failed, and that the traced run wrote
// spans for every layer.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := lookup(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the program", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, window: 300 * time.Millisecond, short: true}
			out := runOK(t, w, cfg)
			checkMetrics(t, out, spec.EndToEnd)

			cfg.trace = true
			cfg.spansPath = filepath.Join(t.TempDir(), "spans.jsonl")
			out = runOK(t, w, cfg)
			checkMetrics(t, out, spec.PerLayer)
			seen := spanNames(t, cfg.spansPath)
			for _, name := range tracedLayers {
				if !seen[name] {
					t.Errorf("traced run wrote no %q span", name)
				}
			}
		})
	}
}

func runOK(t *testing.T, w workloadDef, cfg runConfig) *outcome {
	t.Helper()
	out, err := w.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted == 0 {
		t.Fatal("no operations attempted")
	}
	if out.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", out.failed, out.attempted, out.failures)
	}
	return out
}

func checkMetrics(t *testing.T, out *outcome, want []struct{ Name, Unit string }) {
	t.Helper()
	got := make(map[string]metric, len(out.metrics))
	for _, m := range out.metrics {
		if _, dup := got[m.name]; dup {
			t.Errorf("metric %q reported twice", m.name)
		}
		got[m.name] = m
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %q not reported", w.Name)
		case m.unit != w.Unit:
			t.Errorf("metric %q in %q, BENCHMARK.json says %q", w.Name, m.unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
}

func spanNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l struct{ Name string }
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		seen[l.Name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return seen
}
