package cluster

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func TestPackByClass(t *testing.T) {
	trace := []workload.Class{workload.Short, workload.Long, workload.Short, workload.Short, workload.Long}
	batches := packByClass(trace, 2)
	// Short: {0,2},{3}; Long: {1,4} → 3 batches (order: Long < Short).
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	total := 0
	for _, b := range batches {
		if len(b.JobIDs) > 2 {
			t.Errorf("batch exceeds size: %v", b.JobIDs)
		}
		total += len(b.JobIDs)
		for _, id := range b.JobIDs {
			if trace[id].Name != b.Class.Name {
				t.Errorf("job %d class %s in %s batch", id, trace[id].Name, b.Class.Name)
			}
		}
	}
	if total != len(trace) {
		t.Errorf("packed %d jobs, want %d", total, len(trace))
	}
}

func TestBacklogErrors(t *testing.T) {
	fake := func(req pipeline.Request) pipeline.Report { return pipeline.Report{Batch: req.Batch, StepSec: 1} }
	if _, err := Backlog(model.OPT30B, nil, 4, fake, 1); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Backlog(model.OPT30B, []workload.Class{workload.Short}, 0, fake, 1); err == nil {
		t.Error("batch size 0 accepted")
	}
	if _, err := Backlog(model.OPT30B, []workload.Class{workload.Short}, 1, nil, 1); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := Backlog(model.OPT30B, []workload.Class{workload.Short}, 1, fake, 0); err == nil {
		t.Error("pipelines = 0 accepted")
	}
}

func TestBacklogWithFakeEngine(t *testing.T) {
	fake := func(req pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: req.Batch, StepSec: 1, PrefillSec: 10}
	}
	s, err := Backlog(model.OPT30B, []workload.Class{workload.Short, workload.Short, workload.Medium}, 2, fake, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Batches != 2 || s.Jobs != 3 {
		t.Errorf("summary %+v", s)
	}
	// Short batch: 10 + 99 steps; Medium batch: 10 + 349 steps.
	want := (10.0 + 99) + (10 + 349)
	if s.MakespanSec != want {
		t.Errorf("makespan %v, want %v", s.MakespanSec, want)
	}
	if s.OutputTokens != 2*100+350 {
		t.Errorf("tokens %d", s.OutputTokens)
	}
	if s.Throughput() <= 0 {
		t.Error("non-positive throughput")
	}
}

func TestBacklogShrunkBatchNeedsMorePasses(t *testing.T) {
	trace := []workload.Class{workload.Short, workload.Short, workload.Short, workload.Short}
	// Engine can only fit half the batch: twice the passes.
	half := func(req pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: req.Batch / 2, StepSec: 1, PrefillSec: 0}
	}
	s, err := Backlog(model.OPT30B, trace, 4, half, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := func(req pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: req.Batch, StepSec: 1, PrefillSec: 0}
	}
	s2, _ := Backlog(model.OPT30B, trace, 4, full, 1)
	if s.MakespanSec != 2*s2.MakespanSec {
		t.Errorf("shrunk batch makespan %v, want 2× %v", s.MakespanSec, s2.MakespanSec)
	}
}

func TestBacklogOOM(t *testing.T) {
	oom := func(pipeline.Request) pipeline.Report { return pipeline.Report{OOM: true} }
	s, err := Backlog(model.OPT30B, []workload.Class{workload.Long}, 1, oom, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.OOMBatches != 1 || s.MakespanSec != 0 {
		t.Errorf("OOM summary %+v", s)
	}
}

// Integer-pass accounting: a batch of 3 an engine can only fit 2 of runs
// one full pass plus a batch-1 tail pass, each paying prefill again — never
// 1.5 fractional passes. This engine's timing is batch-independent, so both
// passes cost the same; the tail is still a separate simulated pass.
func TestBacklogIntegerPasses(t *testing.T) {
	shrink := func(req pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: 2, StepSec: 1, PrefillSec: 10}
	}
	s, err := Backlog(model.OPT30B, []workload.Class{workload.Short, workload.Short, workload.Short}, 3, shrink, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One pass: 10 + 99×1 = 109 s. Two passes: 218 s. Fractional 1.5 passes
	// would give 163.5 s and undercharge the second prefill.
	if want := 2 * 109.0; s.MakespanSec != want {
		t.Errorf("makespan %v, want %v (integer passes with per-pass prefill)", s.MakespanSec, want)
	}
}

// Exact tail-pass accounting: when step time scales with the running
// batch, the partial final pass is charged at its own smaller shape, not as
// a full-size pass.
func TestBacklogExactTailPass(t *testing.T) {
	shrink := func(req pipeline.Request) pipeline.Report {
		b := req.Batch
		if b > 2 {
			b = 2
		}
		return pipeline.Report{Batch: b, StepSec: float64(b), PrefillSec: 10}
	}
	s, err := Backlog(model.OPT30B, []workload.Class{workload.Short, workload.Short, workload.Short}, 3, shrink, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Full pass at batch 2: 10 + 99×2 = 208 s; tail pass at batch 1:
	// 10 + 99×1 = 109 s. Ceil accounting would charge 2×208 = 416 s.
	if want := 208.0 + 109; s.MakespanSec != want {
		t.Errorf("makespan %v, want %v (full pass + exact tail pass)", s.MakespanSec, want)
	}
}

// Failed-work accounting: OOM batches keep their jobs out of OutputTokens
// and the makespan but surface them in FailedJobs/FailedJobIDs.
func TestBacklogFailedJobs(t *testing.T) {
	trace := []workload.Class{workload.Short, workload.Short, workload.Long} // Long batch {2}, Short batch {0,1}
	longOOM := func(req pipeline.Request) pipeline.Report {
		if req.Context == workload.Long.Input {
			return pipeline.Report{OOM: true, Reason: "storage OOM"}
		}
		return pipeline.Report{Batch: req.Batch, StepSec: 1, PrefillSec: 1}
	}
	s, err := Backlog(model.OPT30B, trace, 2, longOOM, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs != 3 || s.FailedJobs != 1 || s.CompletedJobs() != 2 {
		t.Errorf("job accounting %+v", s)
	}
	if len(s.FailedJobIDs) != 1 || s.FailedJobIDs[0] != 2 {
		t.Errorf("failed IDs %v, want [2]", s.FailedJobIDs)
	}
	if s.OutputTokens != 2*int64(workload.Short.Output) {
		t.Errorf("tokens %d include failed work", s.OutputTokens)
	}
	// An engine reporting a non-OOM zero batch is equally unrunnable.
	zero := func(pipeline.Request) pipeline.Report { return pipeline.Report{Batch: 0, StepSec: 1} }
	s, err = Backlog(model.OPT30B, trace, 2, zero, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.FailedJobs != 3 || s.OOMBatches != 2 {
		t.Errorf("zero-batch reports not treated as failures: %+v", s)
	}
}

// Multi-pipeline scheduling is deterministic: batches go to the
// earliest-idle pipeline in plan order, so the makespan equals the maximum
// pipeline load of that list schedule, run after run, and total tokens are
// unchanged from the serial plan.
func TestBacklogPipelinesDeterministic(t *testing.T) {
	var classes []workload.Class
	for i := 0; i < 12; i++ {
		classes = append(classes, []workload.Class{workload.Short, workload.Medium, workload.Long}[i%3])
	}
	fake := func(req pipeline.Request) pipeline.Report {
		// Distinct per-class durations: TotalSec = prefill + (out-1)*step.
		return pipeline.Report{Batch: req.Batch, StepSec: float64(req.Context) / 1e6, PrefillSec: 5}
	}

	serial, err := Backlog(model.OPT30B, classes, 2, fake, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Reference list schedule on the serial per-batch durations (the fake
	// engine never shrinks, so each batch is one pass).
	const P = 3
	var load [P]float64
	for _, b := range packByClass(classes, 2) {
		rep := fake(pipeline.Request{Model: model.OPT30B, Batch: len(b.JobIDs), Context: b.Class.Input, OutputLen: b.Class.Output})
		p := 0
		for q := 1; q < P; q++ {
			if load[q] < load[p] {
				p = q
			}
		}
		load[p] += rep.TotalSec(b.Class.Output)
	}
	want := 0.0
	for _, l := range load {
		if l > want {
			want = l
		}
	}

	for trial := 0; trial < 5; trial++ {
		s, err := Backlog(model.OPT30B, classes, 2, fake, P)
		if err != nil {
			t.Fatal(err)
		}
		if s.MakespanSec != want {
			t.Fatalf("trial %d: makespan %v, want max pipeline load %v", trial, s.MakespanSec, want)
		}
		if s.MakespanSec >= serial.MakespanSec {
			t.Fatalf("%d pipelines no faster than serial: %v vs %v", P, s.MakespanSec, serial.MakespanSec)
		}
		if s.OutputTokens != serial.OutputTokens {
			t.Fatalf("token accounting changed under %d pipelines", P)
		}
		if s.Pipelines != P || len(s.PerPipelineSec) != P {
			t.Fatalf("pipeline attribution missing: %+v", s)
		}
		nb := 0
		for _, n := range s.PerPipelineBatches {
			nb += n
		}
		if nb != s.Batches-s.OOMBatches {
			t.Fatalf("per-pipeline batch counts sum to %d, want %d", nb, s.Batches-s.OOMBatches)
		}
	}
}

// Integration: HILOS completes the same backlog faster than the FlexGen
// baseline on the real engines.
func TestHILOSFinishesBacklogFaster(t *testing.T) {
	tb := device.DefaultTestbed()
	gen, err := workload.NewGenerator(3, workload.AzureLikeMix())
	if err != nil {
		t.Fatal(err)
	}
	trace := gen.Trace(64)
	m := model.OPT66B
	flex := func(req pipeline.Request) pipeline.Report { return baseline.FlexSSD(tb).Run(tb, req) }
	hil := func(req pipeline.Request) pipeline.Report { return core.Run(tb, req, core.DefaultOptions(16)) }
	sFlex, err := Backlog(m, trace, 16, flex, 1)
	if err != nil {
		t.Fatal(err)
	}
	sHil, err := Backlog(m, trace, 16, hil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sFlex.OOMBatches != 0 || sHil.OOMBatches != 0 {
		t.Fatalf("unexpected OOM batches: %d / %d", sFlex.OOMBatches, sHil.OOMBatches)
	}
	if sHil.MakespanSec >= sFlex.MakespanSec {
		t.Errorf("HILOS backlog %v s not below FlexGen %v s", sHil.MakespanSec, sFlex.MakespanSec)
	}
	if sHil.OutputTokens != sFlex.OutputTokens {
		t.Error("engines produced different token counts for the same plan")
	}
}
