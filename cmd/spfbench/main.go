// Command spfbench regenerates every figure and quantitative claim of the
// paper as text tables, and records and gates the engine benchmarks
// (ARCHITECTURE.md's bench table indexes both).
//
// Usage:
//
//	spfbench                      # run all experiments (E1-E16)
//	spfbench E1 E10               # run selected experiments
//	spfbench -list                # list experiment IDs
//	spfbench -benchjson FILE      # run the engine benchmark registry
//	                              # (E17-E35, each row at its stated
//	                              # GOMAXPROCS) and write BENCH_*.json
//	                              # entries; exit nonzero if a row's
//	                              # driver or shape check fails
//	spfbench -benchcompare FILE -baselines A.json,B.json [-threshold 3]
//	                              # compare a fresh -benchjson run against
//	                              # the committed baselines; exit nonzero
//	                              # on a regression beyond the threshold,
//	                              # a benchmark missing from or failed in
//	                              # the fresh run, or a GOMAXPROCS
//	                              # mismatch (the CI regression gate)
//
// Every experiment and benchmark fails the run when its result loses the
// shape the paper or the engine claims.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/report"
)

// runBenchJSON measures the registry and writes its entries as JSON, so
// CI and the committed baselines have one machine-readable source. The
// file is written even when a row fails, so the failure is on record.
func runBenchJSON(path string) error {
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	entries, runErr := bench.Measure(bench.Rows(), logf)
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return runErr
}

func main() {
	// testing.Benchmark needs the testing flags registered; without them a
	// driver's b.Fatal panics instead of failing its row. Init registers
	// them on flag.CommandLine, which stays unparsed: spfbench parses its
	// own flags from a separate set, so its command line is unchanged.
	testing.Init()
	flags := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	list := flags.Bool("list", false, "list experiment IDs and exit")
	benchJSON := flags.String("benchjson", "", "run the engine micro-benchmarks and write BENCH entries to this JSON file")
	benchCompare := flags.String("benchcompare", "", "compare this fresh -benchjson file against -baselines (CI regression gate)")
	baselines := flags.String("baselines", "", "comma-separated committed BENCH_*.json baselines for -benchcompare")
	threshold := flags.Float64("threshold", 3.0, "allowed ns/op slowdown factor for -benchcompare (generous: CI runners are noisy)")
	blockProfile := flags.String("blockprofile", "", "write a goroutine blocking profile of the whole run to this file; with the noinline latch wrappers (btree latchBranch/latchLeaf) and the per-benchmark pprof labels, latch contention is attributable per descent level")
	flags.Parse(os.Args[1:]) // ExitOnError: a bad flag exits here
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer func() {
			f, err := os.Create(*blockProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "blockprofile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("block").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "blockprofile: %v\n", err)
				return
			}
			fmt.Printf("wrote blocking profile to %s\n", *blockProfile)
		}()
	}
	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *benchJSON)
		return
	}
	if *benchCompare != "" {
		if *baselines == "" {
			fmt.Fprintln(os.Stderr, "-benchcompare requires -baselines")
			os.Exit(2)
		}
		if err := bench.Compare(os.Stdout, *benchCompare, strings.Split(*baselines, ","), *threshold); err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
			os.Exit(1)
		}
		return
	}
	exps := experiments.All()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}
	want := map[string]bool{}
	for _, a := range flags.Args() {
		want[strings.ToUpper(a)] = true
	}
	failed := 0
	for _, e := range exps {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		var t *report.Table
		var err error
		pprof.Do(context.Background(), pprof.Labels("experiment", e.ID), func(context.Context) {
			t, err = e.Run()
		})
		if t != nil {
			fmt.Print(t.String())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
