package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/repcache"
	"repro/internal/workload"
)

// chaosFleet is the hilos:2x8,flex-dram:1,instinfer:1x8 fleet on real
// engines: two HILOS hosts sharing one engine, a DRAM FlexGen host, and an
// 8-device InstInfer host as the lossy tier. No prices are set: the
// benchmark dispatches least-loaded.
func chaosFleet(tb testing.TB) []Pipeline {
	type term struct {
		sys     engine.System
		count   int
		devices int
	}
	terms := []term{{"hilos", 2, 8}, {"flex-dram", 1, 0}, {"instinfer", 1, 8}}
	var fleet []Pipeline
	for _, t := range terms {
		eng, err := engine.New(t.sys, engine.Config{Testbed: device.DefaultTestbed(), Devices: t.devices, Alpha: engine.AlphaAuto})
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < t.count; i++ {
			fleet = append(fleet, Pipeline{
				Name:     fmt.Sprintf("%s/%d", t.sys, len(fleet)),
				Run:      eng.Run,
				EngineID: string(t.sys),
				Lossy:    t.sys == "instinfer",
			})
		}
	}
	return fleet
}

// chaosTrace mixes an offline Medium/Long backlog with deadline-bound Short
// online requests, both Poisson at rate req/s, IDs in arrival order.
func chaosTrace(tb testing.TB, seed int64, n int, rate, deadlineSec float64) []Request {
	g, err := workload.NewGenerator(seed, []workload.Mix{{Class: workload.Medium, Weight: 0.75}, {Class: workload.Long, Weight: 0.25}})
	if err != nil {
		tb.Fatal(err)
	}
	offArr, err := workload.PoissonArrivals(seed, rate, n)
	if err != nil {
		tb.Fatal(err)
	}
	reqs, err := g.TimedTrace(offArr)
	if err != nil {
		tb.Fatal(err)
	}
	onArr, err := workload.PoissonArrivals(seed+1, rate, n)
	if err != nil {
		tb.Fatal(err)
	}
	for _, at := range onArr {
		reqs = append(reqs, Request{Class: workload.Short, ArrivalSec: at, Priority: 1, DeadlineSec: deadlineSec})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].ArrivalSec < reqs[j].ArrivalSec })
	for i := range reqs {
		reqs[i].ID = i
	}
	return reqs
}

// BenchmarkClusterPreemptChaos measures cluster.Run where eviction and
// recovery dominate: OPT-30B on chaosFleet, 1,500 online plus 1,500 offline
// requests at 0.02 req/s each, preemption on, fail-stops at 24 h MTBF /
// 600 s MTTR and 2% transient batch errors under the default retry policy.
// Only three request shapes occur, so engine reports are a few percent of
// the time and the event loop is most of it. Each iteration starts from an
// empty report cache, as a fresh process does.
func BenchmarkClusterPreemptChaos(b *testing.B) {
	const seed = 2
	fleet := chaosFleet(b)
	reqs := chaosTrace(b, seed, 1500, 0.02, 900)
	horizon := 0.0
	for _, r := range reqs {
		horizon = math.Max(horizon, r.ArrivalSec)
	}
	stops, err := faults.GenerateFailStops(seed, len(fleet), horizon+600, 24*3600, 600)
	if err != nil {
		b.Fatal(err)
	}
	plan := faults.Plan{Seed: seed, Events: stops, TransientProb: 0.02}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		repcache.Reset()
		inj, err := faults.New(plan, len(fleet))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Run(Config{
			Model: model.OPT30B, Fleet: fleet, Policy: LeastLoaded,
			Admission: Admission{MaxBatch: 16, MaxWaitSec: 60, Preemption: true},
			Faults:    inj,
			Retry:     DefaultRetryPolicy(),
		}, reqs); err != nil {
			b.Fatal(err)
		}
	}
}
