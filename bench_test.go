package repro

// The paper's figures and claims (E1–E16, internal/experiments) and the
// engine benchmark registry (E17–E35, internal/bench), each with its shape
// asserts; ARCHITECTURE.md's bench table indexes both. Run all with:
//
//	go test -bench=. -benchmem .
//
// or one row with e.g. -bench 'Engine/E24'. The same lists back
// cmd/spfbench: its default mode prints E1–E16, and -benchjson records
// E17–E35 for the regression gate.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
)

func BenchmarkPaper(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + t.String())
				}
			}
		})
	}
}

func BenchmarkEngine(b *testing.B) {
	for _, r := range bench.Rows() {
		b.Run(r.Name, r.Bench)
	}
}
