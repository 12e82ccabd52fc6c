package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/model"
)

// runGoldenEntry pins one Run configuration: the SHA-256 of the Summary's
// %+v rendering (every field, maps in key order) plus a few readable
// scalars so a drift report says what moved.
type runGoldenEntry struct {
	Digest      string
	Completed   int
	FailedJobs  int
	MakespanSec float64
}

// summaryDigest is the hex SHA-256 of a Summary's %+v rendering.
func summaryDigest(s Summary) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", s)))
	return hex.EncodeToString(sum[:])
}

// runGoldenGrid calls fn for every configuration of the Run golden grid:
// seeds × trace sizes × batch sizes × admission modes × policies × fault
// mixes over faultFleet and parityTrace. The fault mixes are none;
// generated fail-stops plus 30% transient errors; and a straggler window
// with a wear budget, 10% transients and a one-retry budget.
func runGoldenGrid(t *testing.T, fn func(key string, cfg Config, reqs []Request)) {
	t.Helper()
	modes := []struct {
		name      string
		admission Admission
	}{
		{"plain", Admission{MaxWaitSec: 3}},
		{"preempt", Admission{MaxWaitSec: 3, MaxBacklog: 24, Preemption: true}},
		{"continuous", Admission{MaxWaitSec: 3, ContinuousBatching: true}},
		{"both", Admission{MaxWaitSec: 3, MaxBacklog: 24, Preemption: true, ContinuousBatching: true}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{16, 48, 120} {
			reqs := parityTrace(seed, n)
			horizon := reqs[len(reqs)-1].ArrivalSec + 100
			fleet := faultFleet()
			stops, err := faults.GenerateFailStops(seed, len(fleet), horizon, 200, 25)
			if err != nil {
				t.Fatal(err)
			}
			for _, mix := range []string{"none", "stops", "wear"} {
				retry := DefaultRetryPolicy()
				var plan *faults.Plan
				switch mix {
				case "stops":
					plan = &faults.Plan{Seed: seed, Events: stops, TransientProb: 0.3}
				case "wear":
					plan = &faults.Plan{Seed: seed, TransientProb: 0.1, WearBudgetBytes: 6e9,
						Events: []faults.Event{{Kind: faults.Straggler, Pipeline: 1, AtSec: 0, DurationSec: horizon / 2, Factor: 2}},
					}
					retry.MaxRetries = 1
				}
				for _, maxBatch := range []int{1, 3, 6} {
					for _, mode := range modes {
						for _, policy := range Policies() {
							adm := mode.admission
							adm.MaxBatch = maxBatch
							cfg := Config{
								Model: model.OPT30B, Fleet: fleet, Policy: policy,
								Admission: adm, Retry: retry,
							}
							if plan != nil {
								// Transient draws advance the injector's PRNG:
								// every run gets a fresh one.
								cfg.Faults = mustInjector(t, *plan, len(fleet))
							}
							key := fmt.Sprintf("seed%d/n%d/%s/b%d/%s/%s", seed, n, mix, maxBatch, mode.name, policy)
							fn(key, cfg, reqs)
						}
					}
				}
			}
		}
	}
}

// TestRunGolden pins cluster.Run bit-for-bit: every Summary over the grid
// must hash to the digest recorded in testdata/run_golden.json, and every
// schedule must pass the independent validator.
func TestRunGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "run_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]runGoldenEntry
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	seen := 0
	runGoldenGrid(t, func(key string, cfg Config, reqs []Request) {
		s, err := Run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		checkSchedule(t, cfg, s)
		want, ok := golden[key]
		if !ok {
			t.Fatalf("%s: no golden entry", key)
		}
		seen++
		got := runGoldenEntry{Digest: summaryDigest(s), Completed: s.Completed, FailedJobs: s.FailedJobs, MakespanSec: s.MakespanSec}
		if got != want {
			t.Errorf("%s: summary drifted\n got  %+v\n want %+v", key, got, want)
		}
	})
	if seen != len(golden) {
		t.Errorf("checked %d summaries, golden has %d", seen, len(golden))
	}
}

// checkSchedule validates a Run schedule from the Summary alone, sharing no
// code with the event loop: no two attempts overlap on a pipeline, no
// attempt starts before its batch's release, no batch exceeds the retry
// budget, and the per-pipeline batch and job counts re-count from the
// assignments.
func checkSchedule(t *testing.T, cfg Config, s Summary) {
	t.Helper()
	type span struct{ start, finish float64 }
	spans := make([][]span, len(cfg.Fleet))
	batches := make([]int, len(cfg.Fleet))
	jobs := make([]int, len(cfg.Fleet))
	for i, a := range s.Assignments {
		if a.Batch.Attempt > cfg.Retry.MaxRetries {
			t.Errorf("assignment %d: attempt %d exceeds MaxRetries %d", i, a.Batch.Attempt, cfg.Retry.MaxRetries)
		}
		if a.Pipeline < 0 {
			continue
		}
		if a.StartSec < a.Batch.ReleaseSec {
			t.Errorf("assignment %d: starts at %g before its release %g", i, a.StartSec, a.Batch.ReleaseSec)
		}
		spans[a.Pipeline] = append(spans[a.Pipeline], span{a.StartSec, a.FinishSec})
		if !a.Aborted {
			batches[a.Pipeline]++
			jobs[a.Pipeline] += len(a.Batch.JobIDs)
		}
	}
	for p, ss := range spans {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].start != ss[j].start {
				return ss[i].start < ss[j].start
			}
			return ss[i].finish < ss[j].finish
		})
		for i := 1; i < len(ss); i++ {
			if ss[i].start < ss[i-1].finish {
				t.Errorf("pipeline %d: attempt [%g, %g) overlaps [%g, %g)", p, ss[i].start, ss[i].finish, ss[i-1].start, ss[i-1].finish)
			}
		}
		if ps := s.Pipelines[p]; ps.Batches != batches[p] || ps.Jobs != jobs[p] {
			t.Errorf("pipeline %d: Summary says %d batches / %d jobs, assignments re-count %d / %d", p, ps.Batches, ps.Jobs, batches[p], jobs[p])
		}
	}
}
