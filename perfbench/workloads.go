package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	hilos "repro"
	"repro/internal/accel"
	"repro/internal/attention"
	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/longbench"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/repcache"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// instance is one workload's inputs, built from the seed during set-up.
type instance interface {
	// reset drops the last run's outputs and empties the report cache
	// (repcache.Reset), so the next run starts as a fresh process would. It
	// is not timed.
	reset()
	// run executes the timed phase once. tr is nil on untraced passes;
	// root is the pass's root span.
	run(tr *tracer, root int) error
	// check verifies the outputs of the last run.
	check() result
}

// facadeChecker is an instance whose timed phase rebuilds what a public
// facade call builds. crossCheck makes that call once, untimed, and checks
// that it gives the same outputs as the last run.
type facadeChecker interface {
	crossCheck() result
}

// result is what one pass produced, beyond its timing.
type result struct {
	// digests fingerprint simulated outputs; they must repeat across passes
	// and match the golden file.
	digests map[string]string
	// checks counts output checks made; failures names the ones that failed.
	checks   int
	failures []string
	// counts is the work the pass did; it must repeat exactly across passes.
	counts map[string]float64
}

func (r *result) expect(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type workloadDef struct {
	name  string
	why   string
	setup func(seed int64) (instance, error)
}

var workloads = []workloadDef{
	{"paper-suite", "every experiments generator from an empty report cache: the paper's tables, where fig18c's accuracy scoring does nearly all the work", newPaperSuite},
	{"longctx-verify", "the 5.1 accelerator-vs-reference check at 64K context: the only path through the multi-chunk parallel accel datapath", newLongctxVerify},
	{"trace-replay", "a recorded-format CSV with per-request token counts replayed under all three policies: many shapes, so engine Reports dominate", newTraceReplay},
	{"online-chaos", "online deadlines over an offline backlog with preemption, fail-stops and transient errors: three shapes, so eviction and recovery dominate", newOnlineChaos},
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:12])
}

// ---- paper-suite ----

// fig18cSeed is the task seed experiments.Fig18c scores with.
const fig18cSeed = 42

type paperSuite struct {
	runner experiments.Runner
	order  []experiments.Generator
	tables []experiments.Table
	// entries is repcache.Len after the pass.
	entries int
}

// newPaperSuite runs the generators in hilos-bench's order. The suite's
// inputs are the paper's fixed configurations, so the seed changes nothing.
func newPaperSuite(int64) (instance, error) {
	var order []experiments.Generator
	for _, id := range experiments.IDs() {
		g, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		order = append(order, g)
	}
	return &paperSuite{runner: experiments.New(), order: order}, nil
}

func (p *paperSuite) reset() {
	repcache.Reset()
	p.tables, p.entries = nil, 0
}

func (p *paperSuite) run(tr *tracer, root int) error {
	for _, g := range p.order {
		id := tr.begin("experiments."+g.ID, root)
		var t experiments.Table
		if tr != nil && g.ID == "fig18c" {
			t = tracedFig18c(tr, id)
		} else {
			t = g.Run(p.runner)
		}
		tr.end(id)
		p.tables = append(p.tables, t)
	}
	p.entries = repcache.Len()
	return nil
}

// tracedFig18c recomposes experiments.Fig18c from its public parts so each
// longbench method call can be timed: every task of longbench.Suite is
// scored with the exact, accelerator and lossy methods, the tasks spread
// over GOMAXPROCS goroutines as the generator's point pool does. Only the
// rows are built, and check holds them to the generator's golden digest.
func tracedFig18c(tr *tracer, parent int) experiments.Table {
	methods := []struct {
		span string
		m    longbench.Method
	}{
		{"attention.ref", longbench.Exact},
		{"accel.attention", longbench.Blocked},
		{"attention.topk_blocks", longbench.LossyOneEighth},
	}
	suite := longbench.Suite()
	rows := make([][]string, len(suite))
	forEach(len(suite), func(i int) {
		task := suite[i]
		var f1 [3]float64
		for mi, m := range methods {
			sid := tr.begin("longbench.score", parent)
			score, err := task.Score(fig18cSeed, func(q, k, v tensor.Mat) tensor.Mat {
				var out tensor.Mat
				tr.wrap(m.span, sid, func() { out = m.m(q, k, v) })
				return out
			})
			tr.end(sid)
			if err != nil {
				rows[i] = []string{task.Name, "error: " + err.Error()}
				return
			}
			f1[mi] = score
		}
		rows[i] = []string{task.Name, f2(f1[0]), f2(f1[1]), f2(f1[2]), f2(f1[0] - f1[2])}
	})
	return experiments.Table{ID: "fig18c", Rows: rows}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// forEach runs fn(0..n-1) on at most GOMAXPROCS goroutines.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (p *paperSuite) check() result {
	// fig18c's accelerator reads each sample's K and V once, FP16-stored.
	var kv int
	for _, t := range longbench.Suite() {
		kv += t.Samples * 2 * t.Seq * t.Dim * 2
	}
	r := result{digests: map[string]string{}, counts: map[string]float64{
		"repcache.entries": float64(p.entries),
		"accel.kv_mb":      float64(kv) / (1 << 20),
	}}
	r.expect(len(p.tables) == len(experiments.IDs()), "paper-suite: %d tables, want %d", len(p.tables), len(experiments.IDs()))
	for _, t := range p.tables {
		if t.ID != "fig18c" {
			r.digests[t.ID] = digest(t.String())
			continue
		}
		// fig18c's digest covers its rows only, so the traced recomposition
		// is held to the same golden value.
		var b strings.Builder
		for _, row := range t.Rows {
			b.WriteString(strings.Join(row, "|") + "\n")
		}
		r.digests[t.ID] = digest(b.String())
		r.expect(len(t.Rows) == len(longbench.Suite()), "fig18c: %d rows, want %d", len(t.Rows), len(longbench.Suite()))
		for _, row := range t.Rows {
			// Columns: dataset, FlashAttention, HILOS, InstAttention-1/8, drop.
			r.expect(len(row) == 5 && row[1] == row[2], "fig18c %s: HILOS F1 differs from exact F1: %v", row[0], row)
		}
	}
	return r
}

// ---- longctx-verify ----

// verifyTol is hilos-verify's default accelerator-vs-reference tolerance.
const verifyTol = 3e-3

type verifyCase struct {
	s, dg     int
	a         *accel.Accelerator
	q         tensor.Mat
	k, v      tensor.Mat
	qr, kr    tensor.Mat // FP16-rounded reference inputs
	vr        tensor.Mat
	got, want tensor.Mat
	err       error
}

type longctxVerify struct {
	cases []*verifyCase
}

// newLongctxVerify builds the inputs of hilos-verify -maxseq 65536
// -tasks=false's accelerator checks: sequence lengths 1, 31, 128, 129 and
// 65536 at head dim 128, d_group 1, 4 and 5. The d_group cases of one
// length share K/V so the 64K set stays near 128 MiB.
func newLongctxVerify(seed int64) (instance, error) {
	const headDim = 128
	rng := rand.New(rand.NewSource(seed))
	var cases []*verifyCase
	for _, s := range []int{1, 31, 128, 129, 65536} {
		k := tensor.RandMat(rng, s, headDim, 1)
		v := tensor.RandMat(rng, s, headDim, 1)
		kr, vr := k.Clone().RoundFP16(), v.Clone().RoundFP16()
		for _, dg := range []int{1, 4, 5} {
			a, err := accel.New(accel.Config{DGroup: dg, HeadDim: headDim})
			if err != nil {
				return nil, err
			}
			q := tensor.RandMat(rng, dg, headDim, 1)
			cases = append(cases, &verifyCase{s: s, dg: dg, a: a, q: q, k: k, v: v, qr: q.Clone().RoundFP16(), kr: kr, vr: vr})
		}
	}
	return &longctxVerify{cases: cases}, nil
}

func (l *longctxVerify) reset() {
	repcache.Reset()
	for _, c := range l.cases {
		c.got, c.want, c.err = tensor.Mat{}, tensor.Mat{}, nil
	}
}

func (l *longctxVerify) run(tr *tracer, root int) error {
	for _, c := range l.cases {
		tr.wrap("accel.attention", root, func() {
			c.got, c.err = c.a.Attention(c.q, c.k, c.v, nil, tensor.Mat{}, tensor.Mat{})
		})
		tr.wrap("attention.ref", root, func() { c.want = attention.Ref(c.qr, c.kr, c.vr, nil) })
	}
	return nil
}

func (l *longctxVerify) check() result {
	r := result{digests: map[string]string{}, counts: map[string]float64{}}
	var kv int
	for _, c := range l.cases {
		name := fmt.Sprintf("s=%d d_group=%d", c.s, c.dg)
		if c.err != nil {
			r.expect(false, "accel %s: %v", name, c.err)
			continue
		}
		d := float64(tensor.MaxAbsDiff(c.got, c.want))
		r.expect(d <= verifyTol, "accel %s: max|Δ| = %.2e > %.0e", name, d, verifyTol)
		// Kernel outputs are bit-identical run to run; fingerprint them so
		// the passes are compared exactly.
		r.digests[name] = digest(fmt.Sprint(c.got.Data))
		kv += 2 * (len(c.k.Data) + len(c.v.Data))
	}
	r.counts["accel.kv_mb"] = float64(kv) / (1 << 20)
	return r
}

// ---- cluster workloads ----

// fleetTerm is one term of the fleet spec hilos:2x8,flex-dram:1,instinfer:1x8.
type fleetTerm struct {
	sys     engine.System
	count   int
	devices int
}

var benchFleet = []fleetTerm{{"hilos", 2, 8}, {"flex-dram", 1, 8}, {"instinfer", 1, 8}}

// Both cluster workloads admit batches of up to 16 requests and close a
// batch once its oldest request has waited 60 s.
const (
	admitBatch   = 16
	admitWaitSec = 60
)

// amortHours spreads hardware prices over three years, as hilos.Cluster does.
const amortHours = 3 * 365 * 24

type fleetMember struct {
	term   fleetTerm
	eng    engine.Engine
	usd    float64
	energy *cluster.EnergyConfig
}

// newFleet binds each fleet term to its engine and economics the way
// hilos.Cluster does for WithFleet options.
func newFleet(tb device.Testbed) ([]fleetMember, error) {
	var out []fleetMember
	for _, t := range benchFleet {
		eng, err := engine.New(t.sys, engine.Config{Testbed: tb, Devices: t.devices, Alpha: engine.AlphaAuto, SpillInterval: 16})
		if err != nil {
			return nil, err
		}
		var cs cost.System
		ec := energy.Config{Storage: energy.PlainSSDs, Devices: 4}
		if t.sys == "hilos" || t.sys == "instinfer" {
			cs = cost.HILOSSystem(tb.GPU, t.devices)
			ec = energy.Config{Storage: energy.SmartSSDs, Devices: t.devices, AccelPowerW: tb.SmartSSD.AccelPowerW}
		} else {
			cs = cost.FlexSystem(tb.GPU)
		}
		out = append(out, fleetMember{term: t, eng: eng, usd: cs.PriceUSD(tb) / amortHours,
			energy: &cluster.EnergyConfig{Testbed: tb, Model: ec}})
	}
	return out, nil
}

func fleetSize() int {
	n := 0
	for _, t := range benchFleet {
		n += t.count
	}
	return n
}

// clusterBench is the part the two cluster workloads share: the fleet, the
// model, and the timed engine calls.
type clusterBench struct {
	m       model.Config
	fleet   []fleetMember
	reports atomic.Int64
	sums    []cluster.Summary
}

func newClusterBench() (*clusterBench, error) {
	m, err := model.ByName("OPT-30B")
	if err != nil {
		return nil, err
	}
	fleet, err := newFleet(device.DefaultTestbed())
	if err != nil {
		return nil, err
	}
	return &clusterBench{m: m, fleet: fleet}, nil
}

// pipelines builds the fleet for one cluster.Run; each engine Report is
// counted and, when traced, timed as an engine.report span under parent.
func (c *clusterBench) pipelines(tr *tracer, parent int) []cluster.Pipeline {
	var out []cluster.Pipeline
	for _, fm := range c.fleet {
		eng := fm.eng
		run := func(req pipeline.Request) pipeline.Report {
			c.reports.Add(1)
			id := tr.begin("engine.report", parent)
			rep := eng.Run(req)
			tr.end(id)
			return rep
		}
		for i := 0; i < fm.term.count; i++ {
			out = append(out, cluster.Pipeline{
				Name:       fmt.Sprintf("%s/%d", fm.term.sys, len(out)),
				Run:        run,
				USDPerHour: fm.usd,
				Energy:     fm.energy,
				EngineID:   fmt.Sprintf("%s/%d-dev", fm.term.sys, fm.term.devices),
				Lossy:      fm.term.sys == "instinfer",
			})
		}
	}
	return out
}

// runCluster times one cluster.Run as a cluster.run span.
func (c *clusterBench) runCluster(tr *tracer, root int, cfg cluster.Config, reqs []workload.TimedRequest) error {
	id := tr.begin("cluster.run", root)
	cfg.Model = c.m
	cfg.Fleet = c.pipelines(tr, id)
	s, err := cluster.Run(cfg, reqs)
	tr.end(id)
	if err != nil {
		return err
	}
	c.sums = append(c.sums, s)
	return nil
}

// reset empties the report cache, as a fresh hilos-cluster process starts:
// each cluster.Run memoizes under its own repcache.Group, and group entries
// stay in the process cache until repcache.Reset.
func (c *clusterBench) reset() {
	repcache.Reset()
	c.reports.Store(0)
	c.sums = nil
}

// facadeMatches replays reqs once through hilos.Cluster on the same fleet
// with the given options and checks that it gives the Summary of the last
// run's first replay, so the fleet built here cannot drift from the
// facade's.
func (c *clusterBench) facadeMatches(reqs []workload.TimedRequest, opts ...hilos.ClusterOption) result {
	var r result
	if len(c.sums) == 0 {
		r.expect(false, "facade cross-check: no Summary to compare")
		return r
	}
	for _, t := range benchFleet {
		opts = append(opts, hilos.WithFleet(t.sys, t.count, t.devices))
	}
	s, err := hilos.Cluster(c.m, reqs, opts...)
	r.expect(err == nil && reflect.DeepEqual(s, c.sums[0]),
		"%s: hilos.Cluster gives another Summary than the benchmark's fleet (err %v)", c.sums[0].Policy, err)
	return r
}

// checkSummaries verifies job conservation and fingerprints each Summary.
func (c *clusterBench) checkSummaries() result {
	r := result{digests: map[string]string{}, counts: map[string]float64{}}
	var batches, asgs, preempted, retried, failedOver int
	for i, s := range c.sums {
		r.expect(s.Requests == s.Admitted+s.RejectedJobs, "%s: Requests %d != Admitted %d + Rejected %d", s.Policy, s.Requests, s.Admitted, s.RejectedJobs)
		r.expect(s.Admitted == s.Completed+s.FailedJobs, "%s: Admitted %d != Completed %d + Failed %d", s.Policy, s.Admitted, s.Completed, s.FailedJobs)
		r.digests[fmt.Sprintf("%d.%s", i, s.Policy)] = summaryDigest(s)
		batches += s.Batches
		asgs += len(s.Assignments)
		preempted += s.PreemptedJobs
		retried += s.RetriedJobs
		failedOver += s.FailedOverJobs
	}
	r.counts["repcache.entries"] = float64(repcache.Len())
	reports := float64(c.reports.Load())
	r.counts["engine.reports"] = reports
	if batches > 0 {
		r.counts["engine.reports_per_batch"] = reports / float64(batches)
	}
	r.counts["cluster.assignments"] = float64(asgs)
	r.counts["cluster.preempted_jobs"] = float64(preempted)
	r.counts["cluster.retried_jobs"] = float64(retried)
	r.counts["cluster.failed_over_jobs"] = float64(failedOver)
	return r
}

// summaryDigest fingerprints a Summary: every field, and of each
// assignment its batch, placement, timing and the scalar report fields the
// schedule was computed from (formatting every report's maps would cost
// more than the replay).
func summaryDigest(s cluster.Summary) string {
	h := sha256.New()
	asgs := s.Assignments
	s.Assignments = nil
	fmt.Fprintf(h, "%v\n", s)
	for _, a := range asgs {
		rep := a.Report
		fmt.Fprintf(h, "%v %d %q %t %v %v | %s %d %t %v %v %v %v\n",
			a.Batch, a.Pipeline, a.Reason, a.Aborted, a.StartSec, a.FinishSec,
			rep.System, rep.Batch, rep.OOM, rep.PrefillSec, rep.StepSec, rep.PrefillWriteBytes, rep.DecodeWriteBytesPerStep)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// ---- trace-replay ----

const (
	replayRequests = 30000
	// replayRate is hilos-cluster's default -rate, in requests per second.
	replayRate = 1.0
	// replaySigma is the log-space spread of each request's input and output
	// length around its §6.6 class's.
	replaySigma = 0.5
)

type traceReplay struct {
	*clusterBench
	csv  []byte
	reqs []workload.TimedRequest // parsed by the last run
}

// newTraceReplay records a trace in the arrival CSV format. Classes and
// Poisson arrival times are those of hilos.NewTimedWorkloadTrace: the
// Azure-derived §6.6 mix (60% Short 256/100, 30% Medium 1024/350, 10% Long
// 8192/350 input/output tokens). Each request's lengths are then drawn
// log-normally around its class's and rounded to a third-octave grid, as
// recorded token counts scatter around the class means, so the trace carries
// a few hundred distinct request shapes.
func newTraceReplay(seed int64) (instance, error) {
	cb, err := newClusterBench()
	if err != nil {
		return nil, err
	}
	reqs, err := hilos.NewTimedWorkloadTrace(seed, replayRequests, replayRate)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range reqs {
		c := &reqs[i].Class
		c.Input = logNormalBucket(rng, float64(c.Input), 16, 16384)
		c.Output = logNormalBucket(rng, float64(c.Output), 16, 1024)
	}
	var buf bytes.Buffer
	if err := trace.WriteArrivalsCSV(&buf, reqs); err != nil {
		return nil, err
	}
	return &traceReplay{clusterBench: cb, csv: buf.Bytes()}, nil
}

// logNormalBucket draws a log-normal length with the given median and
// log-space spread replaySigma, rounded to the nearest third of an octave
// and clamped to [lo, hi].
func logNormalBucket(rng *rand.Rand, median float64, lo, hi int) int {
	x := median * math.Exp(replaySigma*rng.NormFloat64())
	q := math.Round(3*math.Log2(x)) / 3
	n := int(math.Round(math.Exp2(q)))
	return max(lo, min(hi, n))
}

func (t *traceReplay) reset() {
	t.clusterBench.reset()
	t.reqs = nil
}

func (t *traceReplay) run(tr *tracer, root int) error {
	id := tr.begin("trace.parse", root)
	var err error
	t.reqs, err = trace.ReadArrivalsCSV(bytes.NewReader(t.csv))
	tr.end(id)
	if err != nil {
		return err
	}
	for _, p := range cluster.Policies() {
		cfg := cluster.Config{Policy: p, Admission: cluster.Admission{MaxBatch: admitBatch, MaxWaitSec: admitWaitSec}}
		if err := t.runCluster(tr, root, cfg, t.reqs); err != nil {
			return err
		}
	}
	return nil
}

// crossCheck replays the trace under the first policy through hilos.Cluster.
func (t *traceReplay) crossCheck() result {
	return t.facadeMatches(t.reqs, hilos.WithDispatchPolicy(cluster.Policies()[0]), hilos.WithAdmission(admitBatch, admitWaitSec))
}

func (t *traceReplay) check() result {
	r := t.checkSummaries()
	r.expect(len(t.sums) == len(cluster.Policies()), "trace-replay: %d summaries, want %d", len(t.sums), len(cluster.Policies()))
	shapes := map[workload.Class]bool{}
	for _, q := range t.reqs {
		shapes[q.Class] = true
	}
	r.counts["trace.shapes"] = float64(len(shapes))
	for _, s := range t.sums {
		r.expect(s.Requests == replayRequests, "trace-replay %s: %d requests, want %d", s.Policy, s.Requests, replayRequests)
	}
	return r
}

// ---- online-chaos ----

const (
	// chaosReplays independent replays, each over its own trace and fault
	// schedule drawn from the seed, make up one run: the eviction cost of
	// one replay swings with its draw, and the sum of several swings less.
	chaosReplays     = 4
	chaosOnline      = 1500
	chaosOffline     = 1500
	chaosRate        = 0.02 // requests per second, online and offline each
	chaosDeadlineSec = 900
	chaosMTBFSec     = 24 * 3600
	chaosMTTRSec     = 600
	chaosTransient   = 0.02
)

type chaosReplay struct {
	reqs []workload.TimedRequest
	plan faults.Plan
}

type onlineChaos struct {
	*clusterBench
	replays []chaosReplay
}

func newOnlineChaos(seed int64) (instance, error) {
	cb, err := newClusterBench()
	if err != nil {
		return nil, err
	}
	o := &onlineChaos{clusterBench: cb}
	for i := int64(0); i < chaosReplays; i++ {
		// NewOnlineOfflineTrace draws from seeds s and s+1, so replay
		// seeds are spaced two apart to keep every draw independent.
		s := 2 * (seed*chaosReplays + i)
		reqs, err := hilos.NewOnlineOfflineTrace(s, chaosOnline, chaosOffline, chaosRate, chaosRate, chaosDeadlineSec)
		if err != nil {
			return nil, err
		}
		horizon := 0.0
		for _, r := range reqs {
			horizon = math.Max(horizon, r.ArrivalSec)
		}
		stops, err := faults.GenerateFailStops(s, fleetSize(), horizon+chaosMTTRSec, chaosMTBFSec, chaosMTTRSec)
		if err != nil {
			return nil, err
		}
		o.replays = append(o.replays, chaosReplay{reqs: reqs, plan: faults.Plan{Seed: s, Events: stops, TransientProb: chaosTransient}})
	}
	return o, nil
}

func (o *onlineChaos) run(tr *tracer, root int) error {
	for _, rp := range o.replays {
		// The injector draws transient errors from its own PRNG, so every
		// run starts from a fresh one.
		inj, err := faults.New(rp.plan, fleetSize())
		if err != nil {
			return err
		}
		cfg := cluster.Config{
			Policy:    cluster.LeastLoaded,
			Admission: cluster.Admission{MaxBatch: admitBatch, MaxWaitSec: admitWaitSec, Preemption: true},
			Faults:    inj,
			Retry:     cluster.DefaultRetryPolicy(),
		}
		if err := o.runCluster(tr, root, cfg, rp.reqs); err != nil {
			return err
		}
	}
	return nil
}

// crossCheck makes the first replay through hilos.Cluster.
func (o *onlineChaos) crossCheck() result {
	rp := o.replays[0]
	return o.facadeMatches(rp.reqs,
		hilos.WithDispatchPolicy(cluster.LeastLoaded), hilos.WithAdmission(admitBatch, admitWaitSec),
		hilos.WithPreemption(), hilos.WithFaults(rp.plan), hilos.WithRetryPolicy(hilos.DefaultClusterRetryPolicy()))
}

func (o *onlineChaos) check() result {
	r := o.checkSummaries()
	r.expect(len(o.sums) == chaosReplays, "online-chaos: %d summaries, want %d", len(o.sums), chaosReplays)
	return r
}
