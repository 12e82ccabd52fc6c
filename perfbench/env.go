package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	hilos "repro"
	"repro/internal/accel"
	"repro/internal/longbench"
)

// environment describes the machine, toolchain, source and kernel settings
// a result was measured with.
func environment(commit string) map[string]any {
	return map[string]any{
		"goos":                runtime.GOOS,
		"goarch":              runtime.GOARCH,
		"cpu_model":           cpuModel(),
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go_version":          runtime.Version(),
		"commit":              commit,
		"source_sha256":       sourceDigest(),
		"kernel_workers":      hilos.KernelWorkers(),
		"kernel_cache_budget": hilos.KernelCacheBudget(),
		// Chunk spans of the two kernel shapes the workloads run: the
		// accelerator at head dim 128 and the fig18c tasks at head dim 32.
		"chunk_span_d128": hilos.KernelChunkSpan(128, accel.BlockTokens),
		"chunk_span_d32":  hilos.KernelChunkSpan(32, longbench.RetrievalBlockSize),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which identifies the measured code where no VCS revision is
// available.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
