package cluster

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/workload"
)

// BacklogSummary is the outcome of draining an offline backlog.
//
// Accounting semantics: Jobs counts every job in the plan. Batches the
// engine cannot place (Report.OOM, or an effective batch below 1) fail as a
// unit — their jobs are counted in FailedJobs and listed in FailedJobIDs,
// and contribute nothing to MakespanSec or OutputTokens. Throughput is
// therefore the *effective* rate over completed work only.
type BacklogSummary struct {
	Batches      int
	Jobs         int
	MakespanSec  float64 // max pipeline completion time (serial sum when Pipelines == 1)
	OutputTokens int64   // tokens generated by completed batches
	// PerClassSec attributes total engine-busy seconds (across all
	// pipelines) to request classes.
	PerClassSec map[string]float64

	// Pipelines is the pipeline count the plan was scheduled over.
	Pipelines int
	// PerPipelineSec is each pipeline's total busy time; MakespanSec is its
	// maximum.
	PerPipelineSec []float64
	// PerPipelineBatches counts batches each pipeline executed.
	PerPipelineBatches []int

	// OOMBatches counts batches the engine could not place.
	OOMBatches int
	// FailedJobs counts jobs in failed batches (excluded from OutputTokens).
	FailedJobs int
	// FailedJobIDs lists them, in plan order.
	FailedJobIDs []int
}

// Throughput returns generated tokens per second over the makespan.
// Failed jobs generate no tokens, so a plan with OOM batches reports its
// effective throughput, not the submitted load.
func (s BacklogSummary) Throughput() float64 {
	if s.MakespanSec <= 0 {
		return 0
	}
	return float64(s.OutputTokens) / s.MakespanSec
}

// CompletedJobs returns the number of jobs that produced output.
func (s BacklogSummary) CompletedJobs() int { return s.Jobs - s.FailedJobs }

// packByClass groups the trace into same-shape batches of at most
// batchSize: classes in name order (a deterministic plan regardless of
// arrival interleaving), arrival order within a class, job ID = trace
// index. Partial tail batches are kept: offline systems run them rather
// than wait.
func packByClass(trace []workload.Class, batchSize int) []BatchJob {
	byClass := map[string][]int{}
	var names []string
	for i, c := range trace {
		if _, seen := byClass[c.Name]; !seen {
			names = append(names, c.Name)
		}
		byClass[c.Name] = append(byClass[c.Name], i)
	}
	sort.Strings(names)
	var plan []BatchJob
	for _, name := range names {
		ids := byClass[name]
		for lo := 0; lo < len(ids); lo += batchSize {
			hi := min(lo+batchSize, len(ids))
			plan = append(plan, BatchJob{Class: trace[ids[lo]], JobIDs: ids[lo:hi:hi]})
		}
	}
	return plan
}

// Backlog packs an offline trace into same-shape batches of batchSize
// (packByClass) and list-schedules them in plan order over pipelines
// identical hosts running one engine: each batch goes to the
// earliest-free pipeline (lowest index on ties), which is the dispatcher's
// least-loaded placement with every batch released at time zero. Batch
// simulations are prewarmed on worker goroutines; placement runs on the
// simulated clock, so the summary is deterministic.
//
// This is deliberately not Run over an all-at-zero trace. The event loop
// dispatches full batches in interleaved arrival order and closes each
// class's partial tail only on its timeout, after every full batch; plan
// order emits batches class by class (Long, Medium, Short), close to a
// longest-first schedule. On a 384-configuration grid (OPT-30B/66B × four
// systems × four seeds × n 20/200 × batch 4/16 × 1/2/4 pipelines) the two
// agree on tokens, batches and failed jobs everywhere, but Run's makespan
// is up to 44% longer at 2–4 pipelines.
//
// When the engine shrinks a batch, the remaining jobs run in extra passes:
// ⌊jobs/batch⌋ full passes plus the remainder as a smaller final pass
// simulated at its exact (tail) shape, each pass paying prefill again.
func Backlog(m model.Config, trace []workload.Class, batchSize int, run RunFunc, pipelines int) (BacklogSummary, error) {
	if batchSize < 1 || pipelines < 1 {
		return BacklogSummary{}, fmt.Errorf("cluster: backlog batch size and pipelines must be ≥ 1, got %d and %d", batchSize, pipelines)
	}
	// Every pipeline runs the same engine, so they share one memo group.
	fleet := make([]Pipeline, pipelines)
	for i := range fleet {
		fleet[i] = Pipeline{Name: fmt.Sprintf("pipeline-%d", i), Run: run, EngineID: "backlog"}
	}
	asgs, err := dispatch(m, packByClass(trace, batchSize), fleet, LeastLoaded)
	if err != nil {
		return BacklogSummary{}, err
	}

	s := BacklogSummary{
		Pipelines:          pipelines,
		PerClassSec:        map[string]float64{},
		PerPipelineSec:     make([]float64, pipelines),
		PerPipelineBatches: make([]int, pipelines),
	}
	for _, a := range asgs {
		s.Batches++
		s.Jobs += len(a.Batch.JobIDs)
		if a.Pipeline < 0 {
			s.OOMBatches++
			s.FailedJobs += len(a.Batch.JobIDs)
			s.FailedJobIDs = append(s.FailedJobIDs, a.Batch.JobIDs...)
			continue
		}
		sec := a.ExecSec()
		s.PerPipelineSec[a.Pipeline] += sec
		s.PerPipelineBatches[a.Pipeline]++
		s.PerClassSec[a.Batch.Class.Name] += sec
		s.OutputTokens += int64(len(a.Batch.JobIDs)) * int64(a.Batch.Class.Output)
	}
	for _, t := range s.PerPipelineSec {
		s.MakespanSec = max(s.MakespanSec, t)
	}
	return s, nil
}
