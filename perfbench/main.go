// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload for a fixed time, checks every output, and prints one JSON
// result line: end-to-end metrics, or with -trace 1 the per-layer ladder
// measured from spans around calls into each layer.
//
//	bash perfbench/run.sh --workload trace-replay --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for result and span files")
	commit := flag.String("commit", "unknown", "revision of the measured source, recorded in result files")
	writeGolden := flag.String("write-golden", "", "record golden digests for this seed range (e.g. 1-100) instead of measuring")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok {
		fatalf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *writeGolden != "" {
		if err := recordGolden(w, *writeGolden); err != nil {
			fatalf("%v", err)
		}
		return
	}
	golden, err := loadGolden()
	if err != nil {
		fatalf("%v", err)
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, golden: golden, commit: *commit}
	var metrics map[string]float64
	if *traced == 1 {
		metrics, err = b.traced(*out)
	} else {
		metrics, err = b.untraced()
	}
	if err != nil {
		fatalf("%v", err)
	}
	b.finish(metrics, *traced == 1, *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// bench accumulates one invocation's passes and checks.
type bench struct {
	w       workloadDef
	seed    int64
	seconds float64
	golden  goldenFile
	commit  string

	attempted, failed int
	failures          []string
	first             *result   // first pass's result, the reference for later passes
	crossChecked      bool      // whether the facade cross-check has run
	walls             []float64 // wall seconds of every pass, in order
	rssP99, rssPeak   []float64 // 99th-percentile and peak RSS MiB of every pass, in order
}

// Set-up repeats at least minSetups times and until setupBudget has passed
// (at most maxSetups times), so that quick set-ups get a steady median.
// Set-ups slower than gcAfterSetup are followed by a GC, so that discarded
// inputs do not pile up.
const (
	minSetups    = 3
	maxSetups    = 1000
	setupBudget  = 300 * time.Millisecond
	gcAfterSetup = 10 * time.Millisecond
)

// setup builds the workload's inputs repeatedly, keeping the last build,
// and returns the median set-up time.
func (b *bench) setup(seed int64) (instance, float64, error) {
	var times []float64
	start := time.Now()
	for {
		t0 := time.Now()
		inst, err := b.w.setup(seed)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", b.w.name, err)
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		if len(times) >= minSetups && (len(times) >= maxSetups || time.Since(start) >= setupBudget) {
			return inst, median(times), nil
		}
		if d > gcAfterSetup {
			runtime.GC() // collects this build's inputs before the next
		}
	}
}

// sample is one measured pass.
type sample struct {
	wall, cpu float64
	rssP99MB  float64
	allocMB   float64
	gcs       float64
	res       result
}

// pass runs the timed phase once and checks its outputs. The previous
// pass's outputs and the report cache are dropped and free memory goes back
// to the OS first, so each pass grows its heap from the live inputs as a
// fresh process would, and the pass's own RSS can be sampled.
func (b *bench) pass(inst instance, tr *tracer, seed int64) sample {
	inst.reset()
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rss, err := startRSSSampler()
	if err != nil {
		fatalf("RSS: %v", err)
	}
	cpu0 := cpuSeconds()
	root := tr.startRun()
	t0 := time.Now()
	err = inst.run(tr, root)
	wall := time.Since(t0).Seconds()
	tr.end(root)
	b.walls = append(b.walls, wall)
	cpu := cpuSeconds() - cpu0
	rssP99MB, rssPeakMB := rss.stop()
	b.rssP99 = append(b.rssP99, rssP99MB)
	b.rssPeak = append(b.rssPeak, rssPeakMB)
	runtime.ReadMemStats(&ms1)
	s := sample{wall: wall, cpu: cpu, rssP99MB: rssP99MB,
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		gcs:     float64(ms1.NumGC - ms0.NumGC)}
	b.attempted++
	if err != nil {
		b.fail(fmt.Sprintf("run: %v", err))
		return s
	}
	s.res = inst.check()
	b.judge(&s.res, seed)
	if fc, ok := inst.(facadeChecker); ok && !b.crossChecked {
		b.crossChecked = true
		b.book(fc.crossCheck())
	}
	return s
}

// book counts a result's own checks and failures.
func (b *bench) book(r result) {
	b.attempted += r.checks
	for _, f := range r.failures {
		b.fail(f)
	}
}

func (b *bench) fail(msg string) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
}

// judge books a pass's checks: its own, repetition of digests and counts
// across passes of the same seed, and the golden digests.
func (b *bench) judge(r *result, seed int64) {
	b.book(*r)
	switch {
	case seed != b.seed:
		// The held-out pass has nothing to repeat.
	case b.first == nil:
		b.first = r
	default:
		for _, k := range sortedKeys(b.first.digests) {
			b.attempted++
			if r.digests[k] != b.first.digests[k] {
				b.fail(fmt.Sprintf("%s: output differs between passes", k))
			}
		}
		for _, k := range sortedKeys(b.first.counts) {
			b.attempted++
			if r.counts[k] != b.first.counts[k] {
				b.fail(fmt.Sprintf("%s: count %g differs from first pass %g", k, r.counts[k], b.first.counts[k]))
			}
		}
	}
	want := b.golden.lookup(b.w.name, seed)
	for _, k := range sortedKeys(want) {
		b.attempted++
		if r.digests[k] != want[k] {
			b.fail(fmt.Sprintf("%s: digest %s does not match golden %s", k, r.digests[k], want[k]))
		}
	}
}

// untraced measures end-to-end metrics: passes repeat until the time is up
// (at least minPasses), and each metric is the median over passes.
func (b *bench) untraced() (map[string]float64, error) {
	inst, setupSec, err := b.setup(b.seed)
	if err != nil {
		return nil, err
	}
	var wall, cpu, rss []float64
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for len(wall) < minPasses || time.Now().Before(deadline) {
		s := b.pass(inst, nil, b.seed)
		wall = append(wall, s.wall)
		cpu = append(cpu, s.cpu)
		rss = append(rss, s.rssP99MB)
	}
	return map[string]float64{
		"run_s":      median(wall),
		"cpu_s":      median(cpu),
		"rss_p99_mb": median(rss),
		"setup_s":    setupSec,
	}, nil
}

// minPasses is the fewest timed passes a run makes, however long they take:
// enough for a median that one slow or memory-spiking pass cannot move.
const minPasses = 5

// heldOutSeed derives the second seed a traced run also reports on.
func heldOutSeed(seed int64) int64 { return seed + 1000003 }

// traced alternates untraced and traced passes until the time is up, then
// makes one traced pass on the held-out seed. Layer metrics are medians
// over the traced passes; the tracing overhead is the ratio of the traced
// and untraced medians of pass wall time.
func (b *bench) traced(out string) (map[string]float64, error) {
	inst, _, err := b.setup(b.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var plain []float64
	var layered []map[string]float64
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for len(layered) < 2 || time.Now().Before(deadline) {
		plain = append(plain, b.pass(inst, nil, b.seed).wall)
		s := b.pass(inst, tr, b.seed)
		layered = append(layered, layerMetrics(s, attribute(tr.runSpans())))
	}
	inst.reset()
	held, _, err := b.setup(heldOutSeed(b.seed))
	if err != nil {
		return nil, err
	}
	hs := b.pass(held, tr, heldOutSeed(b.seed))
	heldMetrics := layerMetrics(hs, attribute(tr.runSpans()))

	if err := tr.write(filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	m := medianMetrics(layered)
	m["tracing.overhead_ratio"] = m["tracing.run_s"] / median(plain)
	delete(m, "tracing.run_s")
	for _, k := range heldOutKeys {
		m["heldout."+k] = heldMetrics[k]
	}
	m["checks.fail_ratio"] = float64(b.failed) / float64(b.attempted)
	return m, nil
}

// heldOutKeys are the counts and shares also reported for the held-out seed.
var heldOutKeys = []string{
	"share.attributed", "share.kernels", "share.engine", "share.cluster",
	"accel.calls", "engine.reports", "repcache.entries",
	"cluster.assignments", "cluster.preempted_jobs", "cluster.retried_jobs", "cluster.failed_over_jobs",
}

// layerMetrics turns one traced pass into the per-layer metrics.
func layerMetrics(s sample, a attribution) map[string]float64 {
	m := map[string]float64{
		"tracing.run_s":           s.wall,
		"share.attributed":        1 - a.share(""),
		"share.kernels":           a.share("accel") + a.share("attention"),
		"accel.attention_s":       a.busy["accel.attention"],
		"accel.calls":             float64(a.calls["accel.attention"]),
		"attention.ref_s":         a.busy["attention.ref"],
		"attention.topk_blocks_s": a.busy["attention.topk_blocks"],
		"attention.calls":         float64(a.calls["attention.ref"] + a.calls["attention.topk_blocks"]),
		"engine.report_s":         a.busy["engine.report"],
		"cluster.self_s":          a.sec["cluster"],
		"trace.parse_s":           a.busy["trace.parse"],
		"go.alloc_mb":             s.allocMB,
		"go.gc_cycles":            s.gcs,
	}
	for _, l := range layers {
		m["share."+l] = a.share(l)
	}
	for _, id := range experiments.IDs() {
		m["experiments."+id+"_s"] = a.busy["experiments."+id]
	}
	for _, k := range []string{"accel.kv_mb", "repcache.entries", "engine.reports", "engine.reports_per_batch",
		"cluster.assignments", "cluster.preempted_jobs", "cluster.retried_jobs", "cluster.failed_over_jobs", "trace.shapes"} {
		m[k] = s.res.counts[k]
	}
	return m
}

func medianMetrics(ms []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, k := range sortedKeys(ms[0]) {
		var vs []float64
		for _, m := range ms {
			vs = append(vs, m[k])
		}
		out[k] = median(vs)
	}
	return out
}

// finish writes the result file and prints the result line.
func (b *bench) finish(metrics map[string]float64, traced bool, out string) {
	units := endToEndUnits
	if traced {
		units = layerUnits(metrics)
	}
	line := resultLine{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for k, v := range metrics {
		line.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	record := map[string]any{
		"workload": b.w.name, "why": b.w.why, "seed": b.seed, "seconds": b.seconds, "trace": traced,
		"env": environment(b.commit), "failures": b.failures, "result": line, "pass_wall_s": b.walls,
		"pass_rss_p99_mb": b.rssP99, "pass_peak_rss_mb": b.rssPeak,
	}
	path := filepath.Join(out, "results", fmt.Sprintf("%s-seed%d-trace%v.json", b.w.name, b.seed, traced))
	if err := writeJSON(path, record); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(enc))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var endToEndUnits = map[string]string{"run_s": "s", "cpu_s": "s", "rss_p99_mb": "MB", "setup_s": "s"}

// layerUnits derives each per-layer metric's unit from its name.
func layerUnits(metrics map[string]float64) map[string]string {
	units := map[string]string{}
	for k := range metrics {
		base := strings.TrimPrefix(k, "heldout.")
		switch {
		case strings.HasSuffix(base, "_s"):
			units[k] = "s"
		case strings.HasSuffix(base, "_mb"):
			units[k] = "MB"
		case strings.HasPrefix(base, "share."), strings.HasSuffix(base, "_ratio"), strings.HasSuffix(base, "_per_batch"):
			units[k] = "ratio"
		default:
			units[k] = "count"
		}
	}
	return units
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rssSampler polls the process's resident set size while a pass runs.
type rssSampler struct {
	f     *os.File
	quit  chan struct{}
	done  chan struct{}
	pages []int64 // one sample per poll; written by the polling goroutine until done closes
	pageB int64
}

// rssInterval is the polling period of the RSS sampler.
const rssInterval = 2 * time.Millisecond

// startRSSSampler starts polling /proc/self/statm.
func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{f: f, quit: make(chan struct{}), done: make(chan struct{}),
		pages: make([]int64, 0, 1<<14), pageB: int64(os.Getpagesize())}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			s.poll()
			select {
			case <-s.quit:
				s.poll()
				return
			case <-t.C:
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) poll() {
	var buf [128]byte
	n, err := s.f.ReadAt(buf[:], 0)
	if n == 0 && err != nil {
		return
	}
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		return
	}
	if pages, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
		s.pages = append(s.pages, pages)
	}
}

// stop ends polling and returns, in MiB, the 99th percentile of the RSS
// samples (nearest rank: the pass held more for under 1% of its time) and
// their peak.
func (s *rssSampler) stop() (p99, peak float64) {
	close(s.quit)
	<-s.done
	s.f.Close()
	if len(s.pages) == 0 {
		fatalf("RSS: no sample read from /proc/self/statm")
	}
	sorted := append([]int64(nil), s.pages...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (99*len(sorted) + 99) / 100 // ceil(0.99 n), 1-based
	mib := func(pages int64) float64 { return float64(pages*s.pageB) / (1 << 20) }
	return mib(sorted[rank-1]), mib(sorted[len(sorted)-1])
}
