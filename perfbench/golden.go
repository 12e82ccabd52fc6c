package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// goldenFile holds checked-in output digests for this GOARCH: workload →
// seed → output name → digest. Workloads whose outputs do not depend on the
// seed store them under seedAny.
type goldenFile map[string]map[string]map[string]string

const seedAny = "any"

// goldenDir holds the golden files, relative to the repository root.
const goldenDir = "perfbench/golden"

func goldenPath() string { return filepath.Join(goldenDir, runtime.GOARCH+".json") }

// loadGolden reads the digests for this GOARCH; a missing file means no
// golden checks, not an error.
func loadGolden() (goldenFile, error) {
	data, err := os.ReadFile(goldenPath())
	if errors.Is(err, fs.ErrNotExist) {
		return goldenFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(), err)
	}
	return g, nil
}

func (g goldenFile) lookup(workload string, seed int64) map[string]string {
	if d, ok := g[workload][seedAny]; ok {
		return d
	}
	return g[workload][strconv.FormatInt(seed, 10)]
}

// seedIndependent lists the workloads whose outputs do not depend on the
// seed.
var seedIndependent = map[string]bool{"paper-suite": true}

// recordGolden runs one pass per seed in the range lo-hi and stores its
// digests, checking that the pass's own checks hold.
func recordGolden(w workloadDef, seeds string) error {
	lo, hi, err := parseRange(seeds)
	if err != nil {
		return err
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if g[w.name] == nil || seedIndependent[w.name] {
		g[w.name] = map[string]map[string]string{}
	}
	for seed := lo; seed <= hi; seed++ {
		inst, err := w.setup(seed)
		if err != nil {
			return err
		}
		inst.reset()
		if err := inst.run(nil, -1); err != nil {
			return err
		}
		r := inst.check()
		if len(r.failures) > 0 {
			return fmt.Errorf("seed %d: %s", seed, strings.Join(r.failures, "; "))
		}
		key := strconv.FormatInt(seed, 10)
		if seedIndependent[w.name] {
			key = seedAny
		}
		g[w.name][key] = r.digests
		if seedIndependent[w.name] {
			break
		}
	}
	return writeJSON(goldenPath(), g)
}

func parseRange(s string) (int64, int64, error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	lo, err1 := strconv.ParseInt(a, 10, 64)
	hi, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return 0, 0, fmt.Errorf("bad seed range %q", s)
	}
	return lo, hi, nil
}
