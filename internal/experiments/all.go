package experiments

import (
	"errors"

	"repro/internal/report"
)

// Experiment is one figure or quantitative claim of the paper. Run
// regenerates its table and checks the result's shape (who wins, by what
// rough factor, where the crossovers fall): a shape violation comes back
// as a ShapeCheck error alongside the table.
type Experiment struct {
	ID, Title string
	Run       func() (*report.Table, error)
}

// All returns E1–E16 in order. The root bench_test.go and cmd/spfbench
// both run this list; ARCHITECTURE.md's bench table indexes it.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 1 — failure scopes and escalation", func() (*report.Table, error) {
			r, err := E01FailureEscalation(64)
			if err != nil {
				return nil, err
			}
			// At realistic database sizes, single-page recovery is orders
			// of magnitude cheaper than the media-failure escalation, and
			// loses only one page.
			return r.Table, errors.Join(
				ShapeCheck(r.SinglePage*100 <= r.MediaAtScale,
					"single-page %v not clearly cheaper than media-at-scale %v", r.SinglePage, r.MediaAtScale),
				ShapeCheck(r.PagesLostSPF == 1 && r.PagesLostMedia > 1,
					"scope wrong: spf=%d media=%d", r.PagesLostSPF, r.PagesLostMedia))
		}},
		{"E2", "Figure 2 — symmetric fence keys", func() (*report.Table, error) {
			r, err := E02FenceInvariants(3000)
			if err != nil {
				return nil, err
			}
			return r.Table, ShapeCheck(r.Violations == 0 && r.Detected,
				"violations=%d detected=%v", r.Violations, r.Detected)
		}},
		{"E3", "Figure 3 — Foster B-tree foster relationships", func() (*report.Table, error) {
			r, err := E03FosterVerification(6000)
			if err != nil {
				return nil, err
			}
			// Splits created foster relationships and adoption drained
			// them all.
			return r.Table, errors.Join(
				ShapeCheck(r.Violations == 0, "violations=%d", r.Violations),
				ShapeCheck(r.FostersPeak != 0 && r.FostersFinal == 0,
					"splits=%d fosters left=%d", r.FostersPeak, r.FostersFinal))
		}},
		{"E4", "Figure 4 — optimized system recovery", func() (*report.Table, error) {
			r, err := E04RedoOptimization(32)
			if err != nil {
				return nil, err
			}
			// Logged completed writes reduce redo page reads.
			return r.Table, ShapeCheck(r.ReadsWith < r.ReadsWithout,
				"redo reads with=%d not below without=%d", r.ReadsWith, r.ReadsWithout)
		}},
		{"E5", "Figure 5 — user vs system transactions", func() (*report.Table, error) {
			r, err := E05SystemTxnOverhead(50, 40)
			if err != nil {
				return nil, err
			}
			// Exactly one force per user commit; splits force nothing.
			return r.Table, ShapeCheck(r.UserForces == r.UserCommits && r.SysCommits != 0,
				"forces=%d users=%d sys=%d", r.UserForces, r.UserCommits, r.SysCommits)
		}},
		{"E6", "Figures 6+9 — per-page chain and PRI staleness", func() (*report.Table, error) {
			r, err := E06PerPageChain(30)
			if err != nil {
				return nil, err
			}
			return r.Table, ShapeCheck(r.ChainLength == 30 && r.StaleWhileDirty && r.CurrentAfterWrite,
				"chain=%d stale=%v current=%v", r.ChainLength, r.StaleWhileDirty, r.CurrentAfterWrite)
		}},
		{"E7", "Figure 7 — page recovery index size", func() (*report.Table, error) {
			r, err := E07PRISize([]int{1000, 10000, 100000, 1000000})
			if err != nil {
				return nil, err
			}
			// Worst case near the paper's ~16 B/page; compression far
			// below it.
			return r.Table, ShapeCheck(r.WorstBytesPerPage <= 20 && r.CompressedBytesPerPage <= 1,
				"worst=%.1f compressed=%.3f", r.WorstBytesPerPage, r.CompressedBytesPerPage)
		}},
		{"E8", "Figure 8 — read-path detection outcomes", func() (*report.Table, error) {
			r, err := E08ReadPathDetection()
			if err != nil {
				return nil, err
			}
			errs := []error{ShapeCheck(r.LostWriteCaughtOnlyWithCrossCheck, "PageLSN cross-check ablation shape wrong")}
			for fault, ok := range r.DetectedAndRecovered {
				errs = append(errs, ShapeCheck(ok, "fault %q not detected+recovered", fault))
			}
			return r.Table, errors.Join(errs...)
		}},
		{"E9", "Figure 9 — recovery readiness", func() (*report.Table, error) {
			r, err := E09RecoveryReadiness()
			if err != nil {
				return nil, err
			}
			return r.Table, ShapeCheck(r.EntryExact && r.Recovered,
				"exact=%v recovered=%v", r.EntryExact, r.Recovered)
		}},
		{"E10", "Figure 10 + §6 — recovery latency vs chain length", func() (*report.Table, error) {
			r, err := E10RecoveryLatency([]int{1, 10, 50, 200, 1000})
			if err != nil {
				return nil, err
			}
			// Work equals updates since backup; dozens of records stay
			// within the paper's ~1 s expectation.
			var errs []error
			for _, n := range []int{1, 10, 50, 200} {
				errs = append(errs, ShapeCheck(r.RecordsApplied[n] == n, "chain %d applied %d", n, r.RecordsApplied[n]))
			}
			errs = append(errs,
				ShapeCheck(r.SimTimes[50].Seconds() <= 2, "50-record recovery took %v, paper expects ~1 s", r.SimTimes[50]),
				ShapeCheck(r.SimTimes[10] < r.SimTimes[200], "recovery time not increasing with chain length"))
			return r.Table, errors.Join(errs...)
		}},
		{"E11", "Figure 11 — PRI update sequence crash windows", func() (*report.Table, error) {
			r, err := E11UpdateSequence()
			if err != nil {
				return nil, err
			}
			return r.Table, ShapeCheck(r.AllSafe, "a crash window lost a committed update")
		}},
		{"E12", "Figure 12 — restart recovery actions", func() (*report.Table, error) {
			r, err := E12RestartActions()
			if err != nil {
				return nil, err
			}
			return r.Table, ShapeCheck(r.PRIRepairs != 0, "no lost PRI updates repaired; Fig. 12 row 3 not exercised")
		}},
		{"E13", "§6 — recovery time by failure class", func() (*report.Table, error) {
			r, err := E13RecoveryTimeByClass(48)
			if err != nil {
				return nil, err
			}
			// Single-page recovery is closest to transaction rollback and
			// far below media recovery at realistic sizes (§6).
			return r.Table, errors.Join(
				ShapeCheck(r.SinglePage < r.MediaAtScale,
					"single-page %v not below media-at-scale %v", r.SinglePage, r.MediaAtScale),
				ShapeCheck(r.SinglePage.Seconds() <= 2,
					"single-page recovery %v exceeds ~1 s expectation", r.SinglePage))
		}},
		{"E14", "§6 — backup policy sweep", func() (*report.Table, error) {
			r, err := E14BackupPolicySweep([]int{10, 25, 50, 100, 0}, 300)
			if err != nil {
				return nil, err
			}
			// Records replayed bounded by the interval; unbounded without
			// the policy.
			return r.Table, errors.Join(
				ShapeCheck(r.Applied[10] <= 25 && r.Applied[50] <= 75, "policy not bounding chains: %v", r.Applied),
				ShapeCheck(r.Applied[0] >= 250, "no-policy chain should be ~300, got %d", r.Applied[0]))
		}},
		{"E15", "§2 — mirroring baseline comparison", func() (*report.Table, error) {
			r, err := E15MirrorBaseline(5000)
			if err != nil {
				return nil, err
			}
			// The mirror processes vastly more log than the chain walk
			// (the paper's §2 criticism).
			return r.Table, ShapeCheck(r.MirrorBytes >= 10*r.SPRBytes,
				"mirror %d bytes vs SPR %d: factor too small", r.MirrorBytes, r.SPRBytes)
		}},
		{"E16", "§1 — silent corruption campaign", func() (*report.Table, error) {
			r, err := E16SilentCorruption(12)
			if err != nil {
				return nil, err
			}
			return r.Table, errors.Join(
				ShapeCheck(r.DetectedOnFirstRead, "silent corruption served wrong answers"),
				ShapeCheck(r.RepairedOnRead != 0 && r.ColdPagesFoundByScrub != 0,
					"hot=%d cold=%d: both detection channels must fire", r.RepairedOnRead, r.ColdPagesFoundByScrub))
		}},
	}
}
