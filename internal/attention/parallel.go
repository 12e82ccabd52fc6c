package attention

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// This file implements the parallel block dataflow of the attention kernels:
// Blocked, GQA and TopKBlocks shard their work across the kernel worker pool
// (tensor.ParallelFor) while staying bit-identical to a serial run for every
// worker count. Two invariants make that hold:
//
//   - Partitioning is a pure function of shape. The K/V range is split
//     into block-aligned chunks of ChunkSpan(headDim, blockSize) tokens
//     regardless of how many workers will run them, and the
//     (query row × chunk) work items each own one Partial slot —
//     index-ordered assembly, never a shared accumulator.
//   - Reduction order is fixed. Chunk partials merge through a fixed-shape
//     binary tree (treeMerge): parts[i] absorbs parts[i+stride] for stride
//     1, 2, 4, …, a combination order determined by the chunk count alone.
//     Goroutine completion order can therefore never reach a float32 bit.
//
// Worker scratch (score buffers, per-row top-k state) and the per-call chunk
// partials are drawn from sync.Pool arenas, so steady-state calls allocate
// only the output matrix and one job descriptor.

// minParallelWork is the floor, in query-row·token units, below which the
// kernels run their (identical) dataflow inline: borrowing pool workers for
// a few thousand dot products costs more than it saves. The cutoff is a
// pure function of shape, so it cannot perturb results.
const minParallelWork = 16 * 1024

// CacheBudgetBytes is the per-worker cache budget the K/V chunk span is
// sized against: a typical per-core L2 slice, so one chunk's K and V rows at
// FP32 stay resident while a work item folds them. It is a constant, never
// probed from the host, because the span shapes the fixed merge tree and is
// therefore part of the numeric contract.
const CacheBudgetBytes = 1 << 20

// Chunk-span clamp. Below minChunkTokens the merge tree is deeper than the
// fold work it saves; above maxChunkTokens the (row × chunk) grid stops
// load-balancing long contexts.
const (
	minChunkTokens = 256
	maxChunkTokens = 65536
)

// ChunkSpan returns the K/V chunk length, in tokens, used for range
// sharding: the largest block-aligned span whose K rows plus V rows at FP32
// fit CacheBudgetBytes, clamped to [minChunkTokens, maxChunkTokens] and
// aligned by alignSpan.
//
// The span is a pure function of (headDim, blockSize). Worker count is
// deliberately NOT an input: the chunk partition shapes the fixed merge
// tree, so admitting workers would break the bit-identity of parallel
// results across worker counts — the invariant the whole dataflow is built
// around.
func ChunkSpan(headDim, blockSize int) int {
	if blockSize <= 0 {
		blockSize = 128
	}
	if headDim <= 0 {
		headDim = 1
	}
	// Per token resident per fold: one K row + one V row at FP32.
	target := CacheBudgetBytes / (2 * headDim * 4)
	target = max(minChunkTokens, min(target, maxChunkTokens))
	return alignSpan(target, blockSize)
}

// alignSpan makes a span block-aligned: at least one block, otherwise
// rounded down to a blockSize multiple. Every kernel that splits K/V into
// chunks relies on this — a block never straddles two chunks.
func alignSpan(span, blockSize int) int {
	if blockSize >= span {
		return blockSize
	}
	return span / blockSize * blockSize
}

// chunkCountFor returns the number of K/V range chunks for kRows tokens at
// the given span.
func chunkCountFor(kRows, span int) int {
	return (kRows + span - 1) / span
}

// lane is per-worker scratch: a block score buffer for the chunk kernels and
// the full-range score/selection state for per-row top-k. Lanes live in a
// sync.Pool arena and are fully overwritten before every read, so reuse can
// never leak state between calls.
type lane struct {
	block      []float32 // ≥ rows·blockSize score scratch for one K/V block
	scores     []float32 // ≥ kRows full-range scores (top-k row path)
	blockScore []float32 // ≥ nBlocks pooled block scores (top-k row path)
	part       Partial   // per-row partial (top-k row path)
}

var lanePool = sync.Pool{New: func() any { return new(lane) }}

func getLane() *lane  { return lanePool.Get().(*lane) }
func putLane(l *lane) { lanePool.Put(l) }

// growF ensures a float32 scratch slice has exactly length n.
func growF(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// mergeScratch holds one call's chunk partials — one Partial per
// (query row × chunk) work item — between the parallel fill phase and the
// serial tree-merge. Pooled so steady-state calls reuse both the slice and
// every accumulator.
type mergeScratch struct {
	parts []Partial
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

// getMerge returns a scratch with n identity partials of value dimension dv.
func getMerge(n, dv int) *mergeScratch {
	ms := mergePool.Get().(*mergeScratch)
	if cap(ms.parts) < n {
		ms.parts = make([]Partial, n)
	} else {
		ms.parts = ms.parts[:n]
	}
	for i := range ms.parts {
		p := &ms.parts[i]
		p.Acc = growF(p.Acc, dv)
		p.Reset()
	}
	return ms
}

func putMerge(ms *mergeScratch) { mergePool.Put(ms) }

// treeMerge reduces chunk partials with a fixed-shape binary tree: parts[i]
// absorbs parts[i+stride] for stride 1, 2, 4, …. The float32 combination
// order is a pure function of len(parts) — never of which goroutine
// finished first — which is what keeps parallel results bit-identical to a
// one-worker run. Returns the root (parts[0]).
func treeMerge(parts []Partial) *Partial {
	for stride := 1; stride < len(parts); stride *= 2 {
		for i := 0; i+stride < len(parts); i += 2 * stride {
			parts[i].Merge(parts[i+stride])
		}
	}
	return &parts[0]
}

// chunkPartial folds K/V rows [lo, hi) into p for one query row, walking the
// range in blockSize blocks exactly as the serial Blocked loop does: scores
// for one block into blk, then one Partial.AddBlock (≤ 1 accumulator rescale
// per block).
func chunkPartial(p *Partial, qrow []float32, k, v tensor.Mat, mask []bool, scale float32, blockSize, lo, hi int, blk []float32) {
	for bl := lo; bl < hi; bl += blockSize {
		bh := bl + blockSize
		if bh > hi {
			bh = hi
		}
		s := blk[:bh-bl]
		for ki := bl; ki < bh; ki++ {
			s[ki-bl] = applyMask(tensor.Dot(qrow, k.Row(ki))*scale, mask, ki)
		}
		p.AddBlock(s, v, bl)
	}
}

// BlockedWorkers computes Blocked attention with an explicit worker count.
// Query rows and block-aligned K/V chunks form a (row × chunk) work grid;
// each item computes one chunk partial, and each row's partials reduce
// through the fixed tree. Results are bit-identical for every workers value
// (1 included); Blocked delegates here with the default worker count.
func BlockedWorkers(q, k, v tensor.Mat, mask []bool, blockSize, workers int) tensor.Mat {
	if blockSize <= 0 {
		blockSize = 128
	}
	return blocked(q, k, v, mask, blockSize, ChunkSpan(q.Cols, blockSize), workers)
}

// blocked is BlockedWorkers over chunks of a given block-aligned span.
func blocked(q, k, v tensor.Mat, mask []bool, blockSize, span, workers int) tensor.Mat {
	scale := float32(1 / math.Sqrt(float64(q.Cols)))
	out := tensor.New(q.Rows, v.Cols)
	if k.Rows == 0 || q.Rows == 0 {
		return out
	}
	nChunks := chunkCountFor(k.Rows, span)
	if q.Rows*k.Rows < minParallelWork {
		workers = 1
	}
	ms := getMerge(q.Rows*nChunks, v.Cols)
	tensor.ParallelFor(q.Rows*nChunks, workers, func(it int) {
		qi, c := it/nChunks, it%nChunks
		lo := c * span
		hi := lo + span
		if hi > k.Rows {
			hi = k.Rows
		}
		ln := getLane()
		ln.block = growF(ln.block, blockSize)
		chunkPartial(&ms.parts[it], q.Row(qi), k, v, mask, scale, blockSize, lo, hi, ln.block)
		putLane(ln)
	})
	for qi := 0; qi < q.Rows; qi++ {
		p := treeMerge(ms.parts[qi*nChunks : (qi+1)*nChunks])
		p.FinalizeInto(out.Row(qi))
	}
	putMerge(ms)
	return out
}

// GQAWorkers computes grouped-query attention with an explicit worker count.
// Unlike BlockedWorkers' (row × chunk) grid, the work item here is one K/V
// chunk shared by the whole group: each K row is read once per block and
// scored against every query head before the per-(head, chunk) partials are
// folded — the host-side analogue of the accelerator broadcasting one K/V
// stream to dGroup×128 MAC lanes. Per-head numerics are identical to
// BlockedWorkers (same blocks, same fold order, same tree), so GQA outputs
// are bit-identical to per-head Blocked outputs for every worker count.
func GQAWorkers(q, k, v tensor.Mat, mask []bool, blockSize, workers int) tensor.Mat {
	if blockSize <= 0 {
		blockSize = 128
	}
	return gqa(q, k, v, mask, blockSize, ChunkSpan(q.Cols, blockSize), workers)
}

// gqa is GQAWorkers over chunks of a given block-aligned span.
func gqa(q, k, v tensor.Mat, mask []bool, blockSize, span, workers int) tensor.Mat {
	rows := q.Rows
	scale := float32(1 / math.Sqrt(float64(q.Cols)))
	out := tensor.New(rows, v.Cols)
	if k.Rows == 0 || rows == 0 {
		return out
	}
	nChunks := chunkCountFor(k.Rows, span)
	if rows*k.Rows < minParallelWork {
		workers = 1
	}
	ms := getMerge(rows*nChunks, v.Cols)
	tensor.ParallelFor(nChunks, workers, func(c int) {
		lo := c * span
		hi := lo + span
		if hi > k.Rows {
			hi = k.Rows
		}
		ln := getLane()
		ln.block = growF(ln.block, rows*blockSize)
		for bl := lo; bl < hi; bl += blockSize {
			bh := bl + blockSize
			if bh > hi {
				bh = hi
			}
			w := bh - bl
			buf := ln.block[:rows*w]
			// One pass over the K block scores all heads: krow stays hot
			// across the group, the shared-traversal half of GQA.
			for ki := bl; ki < bh; ki++ {
				krow := k.Row(ki)
				for g := 0; g < rows; g++ {
					buf[g*w+ki-bl] = applyMask(tensor.Dot(q.Row(g), krow)*scale, mask, ki)
				}
			}
			for g := 0; g < rows; g++ {
				ms.parts[g*nChunks+c].AddBlock(buf[g*w:(g+1)*w], v, bl)
			}
		}
		putLane(ln)
	})
	for g := 0; g < rows; g++ {
		p := treeMerge(ms.parts[g*nChunks : (g+1)*nChunks])
		p.FinalizeInto(out.Row(g))
	}
	putMerge(ms)
	return out
}

// topKBlocksRow runs the full serial per-row TopKBlocks dataflow for one
// query row using lane-local scratch: score every cached token, mean-pool
// blocks in float64, then attendKept.
func topKBlocksRow(ln *lane, qrow []float32, k, v tensor.Mat, mask []bool, scale float32, keepBlocks, blockSize, nBlocks int, orow []float32) {
	scores := ln.scores
	blockScore := ln.blockScore
	for ki := 0; ki < k.Rows; ki++ {
		scores[ki] = applyMask(tensor.Dot(qrow, k.Row(ki))*scale, mask, ki)
	}
	for b := 0; b < nBlocks; b++ {
		lo, hi := b*blockSize, (b+1)*blockSize
		if hi > k.Rows {
			hi = k.Rows
		}
		blockScore[b] = poolBlock(scores, lo, hi)
	}
	attendKept(ln, v, keepBlocks, blockSize, orow)
}

// attendKept selects the keepBlocks best pooled blocks in ln.blockScore
// deterministically and attends over their ln.scores in selection order,
// writing the normalized output row.
func attendKept(ln *lane, v tensor.Mat, keepBlocks, blockSize int, orow []float32) {
	scores := ln.scores
	p := &ln.part
	p.Acc = growF(p.Acc, v.Cols)
	p.Reset()
	for _, b := range topKIndices(ln.blockScore, keepBlocks) {
		lo, hi := b*blockSize, min((b+1)*blockSize, len(scores))
		p.AddBlock(scores[lo:hi], v, lo)
	}
	p.FinalizeInto(orow)
}

// poolBlock mean-pools scores[lo:hi] in float64 so block ranking does not
// depend on float32 rounding of the partial sums (hilos-lint: floataccum).
func poolBlock(scores []float32, lo, hi int) float32 {
	var sum float64
	for i := lo; i < hi; i++ {
		sum += float64(scores[i])
	}
	return float32(sum / float64(hi-lo))
}

// TopKBlocksWorkers computes lossy block-sparse attention with an explicit
// worker count. Multi-row calls shard query rows (each row runs the full
// serial dataflow on lane scratch); the single-row decode shape instead
// parallelizes the score+pool phase over block-aligned chunks — every score
// and pooled block mean lands in an index-owned slot — and keeps the
// selection and kept-block attention serial, in deterministic selection
// order. Both dataflows produce bit-identical results to a one-worker run.
func TopKBlocksWorkers(q, k, v tensor.Mat, mask []bool, keepBlocks, blockSize, workers int) tensor.Mat {
	if blockSize <= 0 {
		blockSize = 16
	}
	return topKBlocks(q, k, v, mask, keepBlocks, blockSize, ChunkSpan(q.Cols, blockSize), workers)
}

// topKBlocks is TopKBlocksWorkers whose single-row score+pool phase runs
// over chunks of a given block-aligned span.
func topKBlocks(q, k, v tensor.Mat, mask []bool, keepBlocks, blockSize, span, workers int) tensor.Mat {
	scale := float32(1 / math.Sqrt(float64(q.Cols)))
	nBlocks := (k.Rows + blockSize - 1) / blockSize
	out := tensor.New(q.Rows, v.Cols)
	if k.Rows == 0 || q.Rows == 0 {
		return out
	}
	if q.Rows*k.Rows < minParallelWork {
		workers = 1
	}
	if q.Rows > 1 {
		tensor.ParallelFor(q.Rows, workers, func(qi int) {
			ln := getLane()
			ln.scores = growF(ln.scores, k.Rows)
			ln.blockScore = growF(ln.blockScore, nBlocks)
			topKBlocksRow(ln, q.Row(qi), k, v, mask, scale, keepBlocks, blockSize, nBlocks, out.Row(qi))
			putLane(ln)
		})
		return out
	}

	// Single query row: phase 1 (scores + pooled block means) in parallel
	// over chunks, phases 2–3 (selection, kept-block attention) serial.
	qrow := q.Row(0)
	nChunks := chunkCountFor(k.Rows, span)
	ln := getLane()
	ln.scores = growF(ln.scores, k.Rows)
	ln.blockScore = growF(ln.blockScore, nBlocks)
	scores, blockScore := ln.scores, ln.blockScore
	tensor.ParallelFor(nChunks, workers, func(c int) {
		lo := c * span
		hi := lo + span
		if hi > k.Rows {
			hi = k.Rows
		}
		for ki := lo; ki < hi; ki++ {
			scores[ki] = applyMask(tensor.Dot(qrow, k.Row(ki))*scale, mask, ki)
		}
		// Chunks are block-aligned, so every block [blo, bhi) lies in
		// exactly one chunk and its pooled mean has a single writer.
		for b := lo / blockSize; b*blockSize < hi; b++ {
			blo, bhi := b*blockSize, (b+1)*blockSize
			if bhi > k.Rows {
				bhi = k.Rows
			}
			blockScore[b] = poolBlock(scores, blo, bhi)
		}
	})
	attendKept(ln, v, keepBlocks, blockSize, out.Row(0))
	putLane(ln)
	return out
}
