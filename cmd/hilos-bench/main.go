// Command hilos-bench regenerates the paper's evaluation: every table and
// figure, printed as aligned text tables with the paper's expected shapes
// as notes.
//
// Usage:
//
//	hilos-bench                 # run everything in paper order
//	hilos-bench -only fig10     # run one experiment
//	hilos-bench -list           # list experiment identifiers
//
// It is also the benchmark bookkeeping tool behind BENCH_*.json: piping the
// output of `go test -run '^$' -bench . -benchmem` into -bench-json parses
// the suite into a {name → ns/op, allocs/op, bytes/op} snapshot, and
// -bench-baseline guards the scheduler against regressions:
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem . |
//	    hilos-bench -bench-json BENCH_PR4.json
//	go test -run '^$' -bench Scheduler -benchtime 20x -benchmem . |
//	    hilos-bench -bench-json /dev/null -bench-baseline BENCH_PR4.json
//
// The guard compares the machine-independent ratio of
// BenchmarkSchedulerListScheduling to its retained O(n²) reference
// (BenchmarkSchedulerListSchedulingReference): the run fails if the current
// ratio regresses more than -max-regress over the baseline's ratio, or if
// the event-driven scheduler is no longer at least 5x faster than the
// reference (the PR 4 acceptance floor).
//
// When the run includes BenchmarkClusterTelemetryOn/Off, the same guard
// caps the cluster loop's enabled-telemetry overhead at 2x and compares
// the on/off ratio against the baseline's (skipped for snapshots that
// predate the telemetry layer).
//
// When the run includes the parallel attention pair
// (BenchmarkBlockedAttention64KSerial / ...Workers4), the guard also floors
// the serial/parallel speedup at 2x — but only when the Workers4 bench ran
// with GOMAXPROCS ≥ 4 (read from the benchmark name's -N suffix): on a
// smaller machine no parallel speedup is physically measurable, so the
// check reports itself skipped instead of failing vacuously.
//
// Three further machine-independent kernel ratios are floored when their
// pairs appear in the run: the 8-lane striped Dot must beat the retained
// scalar DotRef by ≥ 1.3x, the blocked transpose must beat the naive loop by
// ≥ 1.2x (both pure-ILP ratios, checked at any GOMAXPROCS), and the
// accelerator serial/4-worker pair (BenchmarkAcceleratorAttention16K*) must
// clear 1.5x under the same ≥ 4-proc gate as the attention pair.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	hilos "repro"
)

// benchResult is one benchmark's recorded measurements.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Procs is the GOMAXPROCS the benchmark ran under (the -N name suffix;
	// 1 when absent). The parallel-kernel gate only applies to runs that
	// actually had cores to parallelize over.
	Procs int `json:"procs,omitempty"`
}

// benchFile is the BENCH_*.json schema.
type benchFile struct {
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to its
	// measurements.
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

const (
	schedBench    = "BenchmarkSchedulerListScheduling"
	schedRefBench = "BenchmarkSchedulerListSchedulingReference"
	// minSpeedup is the acceptance floor: the event-driven scheduler must
	// stay at least this many times faster than the retained reference.
	minSpeedup = 5.0

	telOffBench = "BenchmarkClusterTelemetryOff"
	telOnBench  = "BenchmarkClusterTelemetryOn"
	// maxTelemetryRatio caps ns(telemetry on)/ns(telemetry off) for the
	// cluster loop: instrumentation must never come close to doubling the
	// scheduler's cost even when fully enabled.
	maxTelemetryRatio = 2.0

	kernelSerialBench = "BenchmarkBlockedAttention64KSerial"
	kernelParBench    = "BenchmarkBlockedAttention64KWorkers4"
	// minKernelSpeedup floors ns(serial)/ns(4 workers) for the 64K-context
	// decode-shape attention kernel: the chunked worker-pool dataflow must
	// actually scale, not just stay bit-identical. Enforced only when the
	// parallel bench ran with GOMAXPROCS ≥ minKernelProcs.
	minKernelSpeedup = 2.0
	minKernelProcs   = 4

	dotBench    = "BenchmarkDot"
	dotRefBench = "BenchmarkDotRef"
	// minDotSpeedup floors ns(DotRef)/ns(Dot): the 8-lane striped dot must
	// beat the retained scalar reference by this much on the same vectors.
	// Machine-independent (both run on the same core in the same process)
	// and enforced at any GOMAXPROCS — lane striping is ILP, not threading.
	minDotSpeedup = 1.3

	transposeBench    = "BenchmarkTransposeBlocked"
	transposeRefBench = "BenchmarkTransposeRef"
	// minTransposeSpeedup floors ns(naive)/ns(blocked) for the 16 MiB
	// transpose whose column writes stride far past L1.
	minTransposeSpeedup = 1.2

	accelSerialBench = "BenchmarkAcceleratorAttention16KSerial"
	accelParBench    = "BenchmarkAcceleratorAttention16KWorkers4"
	// minAccelSpeedup floors ns(serial)/ns(4 workers) for the accelerator
	// functional datapath. Lower than the attention floor: the per-group
	// stats fold, tree merge and normalization stay serial by design
	// (Amdahl), and FP16 quantization is shared work. Proc-gated like the
	// attention pair.
	minAccelSpeedup = 1.5
)

// benchLine matches `go test -bench` result lines, e.g.
// "BenchmarkFoo-8   	 100	  123 ns/op	  45 B/op	  6 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

// parseBench reads `go test -bench` output and collects one result per
// benchmark. Later lines override earlier ones, so a re-run of selected
// benchmarks at a longer -benchtime can refine a full-suite pass.
func parseBench(r io.Reader) (benchFile, error) {
	out := benchFile{Benchmarks: map[string]benchResult{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return out, fmt.Errorf("hilos-bench: bad ns/op in %q: %v", sc.Text(), err)
		}
		res := benchResult{NsPerOp: ns, Procs: 1}
		if m[2] != "" {
			if p, err := strconv.Atoi(m[2]); err == nil {
				res.Procs = p
			}
		}
		for _, field := range strings.Split(m[4], "\t") {
			field = strings.TrimSpace(field)
			switch {
			case strings.HasSuffix(field, " B/op"):
				res.BytesPerOp, _ = strconv.ParseFloat(strings.TrimSuffix(field, " B/op"), 64)
			case strings.HasSuffix(field, " allocs/op"):
				res.AllocsPerOp, _ = strconv.ParseFloat(strings.TrimSuffix(field, " allocs/op"), 64)
			}
		}
		out.Benchmarks[m[1]] = res
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if len(out.Benchmarks) == 0 {
		return out, fmt.Errorf("hilos-bench: no benchmark lines found on stdin")
	}
	return out, nil
}

// schedRatio returns ns(scheduler)/ns(reference) from a snapshot.
func schedRatio(f benchFile) (float64, error) {
	cur, ok := f.Benchmarks[schedBench]
	if !ok {
		return 0, fmt.Errorf("hilos-bench: %s missing", schedBench)
	}
	ref, ok := f.Benchmarks[schedRefBench]
	if !ok {
		return 0, fmt.Errorf("hilos-bench: %s missing", schedRefBench)
	}
	if ref.NsPerOp <= 0 {
		return 0, fmt.Errorf("hilos-bench: non-positive reference timing %v", ref.NsPerOp)
	}
	return cur.NsPerOp / ref.NsPerOp, nil
}

// checkRegression enforces the scheduler guard against a baseline snapshot.
func checkRegression(current, baseline benchFile, maxRegress float64) error {
	cur, err := schedRatio(current)
	if err != nil {
		return err
	}
	base, err := schedRatio(baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	fmt.Printf("scheduler/reference ratio: current %.4f (%.1fx speedup), baseline %.4f (%.1fx)\n",
		cur, 1/cur, base, 1/base)
	if cur > 1/minSpeedup {
		return fmt.Errorf("hilos-bench: scheduler speedup %.2fx below the %.0fx acceptance floor", 1/cur, minSpeedup)
	}
	if cur > base*(1+maxRegress) {
		return fmt.Errorf("hilos-bench: scheduler regressed: ratio %.4f exceeds baseline %.4f by more than %.0f%%",
			cur, base, 100*maxRegress)
	}
	return checkTelemetryOverhead(current, baseline, maxRegress)
}

// checkTelemetryOverhead enforces the observability guard: with both
// telemetry cluster benchmarks present, the machine-independent on/off
// ratio must stay under maxTelemetryRatio, and — once a baseline snapshot
// records the ratio — must not regress past it by more than maxRegress.
// Snapshots predating the telemetry layer (e.g. BENCH_PR4.json) simply
// skip the baseline comparison.
func checkTelemetryOverhead(current, baseline benchFile, maxRegress float64) error {
	ratio := func(f benchFile) (float64, bool) {
		on, okOn := f.Benchmarks[telOnBench]
		off, okOff := f.Benchmarks[telOffBench]
		if !okOn || !okOff || off.NsPerOp <= 0 {
			return 0, false
		}
		return on.NsPerOp / off.NsPerOp, true
	}
	cur, ok := ratio(current)
	if !ok {
		fmt.Println("telemetry overhead check skipped (cluster telemetry benchmarks not in this run)")
		return checkKernelParallel(current, baseline, maxRegress)
	}
	fmt.Printf("cluster telemetry on/off ratio: current %.4f (cap %.1f)\n", cur, maxTelemetryRatio)
	if cur > maxTelemetryRatio {
		return fmt.Errorf("hilos-bench: telemetry overhead ratio %.2f exceeds the %.1f cap", cur, maxTelemetryRatio)
	}
	if base, ok := ratio(baseline); ok && cur > base*(1+maxRegress) {
		return fmt.Errorf("hilos-bench: telemetry overhead regressed: ratio %.4f exceeds baseline %.4f by more than %.0f%%",
			cur, base, 100*maxRegress)
	}
	return checkKernelParallel(current, baseline, maxRegress)
}

// checkKernelParallel enforces the parallel-attention guard: with the
// serial/4-worker 64K decode pair present and run on a machine with
// GOMAXPROCS ≥ minKernelProcs, the speedup ns(serial)/ns(parallel) must
// clear the minKernelSpeedup floor and must not regress more than
// maxRegress below a baseline that recorded the pair under the same
// condition. Runs on smaller machines (or without the pair) report the
// check skipped — a 1-core container cannot measure parallelism, and a
// vacuous pass would hide that.
func checkKernelParallel(current, baseline benchFile, maxRegress float64) error {
	speedup := func(f benchFile) (float64, bool) {
		ser, okS := f.Benchmarks[kernelSerialBench]
		par, okP := f.Benchmarks[kernelParBench]
		if !okS || !okP || par.NsPerOp <= 0 || par.Procs < minKernelProcs {
			return 0, false
		}
		return ser.NsPerOp / par.NsPerOp, true
	}
	cur, ok := speedup(current)
	if !ok {
		fmt.Println("kernel parallel check skipped (serial/parallel pair absent or GOMAXPROCS < 4)")
		return checkKernelRatios(current, baseline, maxRegress)
	}
	fmt.Printf("attention serial/parallel speedup: current %.2fx (floor %.1fx at %d workers)\n",
		cur, minKernelSpeedup, minKernelProcs)
	if cur < minKernelSpeedup {
		return fmt.Errorf("hilos-bench: parallel attention speedup %.2fx below the %.1fx floor", cur, minKernelSpeedup)
	}
	if base, ok := speedup(baseline); ok && cur < base*(1-maxRegress) {
		return fmt.Errorf("hilos-bench: parallel attention speedup regressed: %.2fx is more than %.0f%% below baseline %.2fx",
			cur, 100*maxRegress, base)
	}
	return checkKernelRatios(current, baseline, maxRegress)
}

// pairRatio returns ns(slow)/ns(fast) for a benchmark pair in a snapshot,
// optionally requiring the fast bench to have run with at least minProcs.
func pairRatio(f benchFile, slow, fast string, minProcs int) (float64, bool) {
	s, okS := f.Benchmarks[slow]
	fa, okF := f.Benchmarks[fast]
	if !okS || !okF || fa.NsPerOp <= 0 || fa.Procs < minProcs {
		return 0, false
	}
	return s.NsPerOp / fa.NsPerOp, true
}

// checkKernelRatios enforces the PR 10 cache-aware kernel floors: the striped
// Dot over the scalar reference, the blocked transpose over the naive loop
// (both pure-ILP ratios, enforced at any GOMAXPROCS), and the accelerator
// serial/4-worker pair (proc-gated like the attention pair). Each ratio is
// ns(slow)/ns(fast) within one process on one machine — machine-independent —
// and each also guards against regressing more than maxRegress below a
// baseline that recorded it.
func checkKernelRatios(current, baseline benchFile, maxRegress float64) error {
	checks := []struct {
		name, slow, fast string
		floor            float64
		minProcs         int
		skipNote         string
	}{
		{"striped Dot vs scalar DotRef", dotRefBench, dotBench, minDotSpeedup, 0,
			"Dot pair absent from this run"},
		{"blocked transpose vs naive", transposeRefBench, transposeBench, minTransposeSpeedup, 0,
			"transpose pair absent from this run"},
		{"accel serial/parallel", accelSerialBench, accelParBench, minAccelSpeedup, minKernelProcs,
			"accel pair absent or GOMAXPROCS < 4"},
	}
	for _, c := range checks {
		cur, ok := pairRatio(current, c.slow, c.fast, c.minProcs)
		if !ok {
			fmt.Printf("%s check skipped (%s)\n", c.name, c.skipNote)
			continue
		}
		fmt.Printf("%s speedup: current %.2fx (floor %.1fx)\n", c.name, cur, c.floor)
		if cur < c.floor {
			return fmt.Errorf("hilos-bench: %s speedup %.2fx below the %.1fx floor", c.name, cur, c.floor)
		}
		if base, ok := pairRatio(baseline, c.slow, c.fast, c.minProcs); ok && cur < base*(1-maxRegress) {
			return fmt.Errorf("hilos-bench: %s speedup regressed: %.2fx is more than %.0f%% below baseline %.2fx",
				c.name, cur, 100*maxRegress, base)
		}
	}
	return nil
}

func runBenchMode(jsonOut, baselinePath string, maxRegress float64) error {
	current, err := parseBench(os.Stdin)
	if err != nil {
		return err
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d benchmark results to %s\n", len(current.Benchmarks), jsonOut)
	}
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return err
		}
		var baseline benchFile
		if err := json.Unmarshal(raw, &baseline); err != nil {
			return fmt.Errorf("hilos-bench: parsing baseline %s: %v", baselinePath, err)
		}
		if err := checkRegression(current, baseline, maxRegress); err != nil {
			return err
		}
		fmt.Println("scheduler regression check passed")
	}
	return nil
}

func main() {
	only := flag.String("only", "", "run a single experiment by ID (e.g. fig10)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	benchJSON := flag.String("bench-json", "", "parse `go test -bench` output from stdin and write it as JSON to this path")
	benchBaseline := flag.String("bench-baseline", "", "compare stdin's scheduler benchmarks against this BENCH_*.json baseline")
	maxRegress := flag.Float64("max-regress", 0.20, "allowed fractional regression of the scheduler/reference ratio")
	flag.Parse()

	if *benchJSON != "" || *benchBaseline != "" {
		if err := runBenchMode(*benchJSON, *benchBaseline, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println(strings.Join(hilos.ExperimentIDs(), "\n"))
		return
	}

	sim, err := hilos.New()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *only != "" {
		tab, err := sim.ExperimentByID(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(tab)
		return
	}

	start := time.Now()
	for _, id := range hilos.ExperimentIDs() {
		t0 := time.Now()
		tab, err := sim.ExperimentByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(tab)
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(t0).Seconds())
	}
	fmt.Printf("all experiments completed in %.1fs\n", time.Since(start).Seconds())
}
