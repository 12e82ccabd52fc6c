package accel

import (
	"math"

	"repro/internal/attention"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

// This file implements the parallel functional datapath of the accelerator
// model: AttentionWorkers shards the (query group × K/V chunk) grid across
// the kernel worker pool (tensor.ParallelFor) while staying bit-identical to
// a one-worker run, mirroring the internal/attention dataflow:
//
//   - The chunk partition is a pure function of shape
//     (attention.ChunkSpan at the hardware block size), never of worker
//     count, and every (group, chunk) work item owns its score slice, its
//     per-block stat slots and its chunk accumulator.
//   - Per-group softmax statistics fold serially in block index order —
//     exactly the serial dataflow's association — and chunk accumulators
//     reduce through the same fixed-shape stride-doubling tree the
//     attention kernels use.
//
// The tests keep a serial single-pass loop as the golden reference: with a
// chunk span past the padded sequence length the parallel datapath
// degenerates to it bit-for-bit (one chunk, same fold order).

// accelMinParallelWork is the floor, in group·token units, below which the
// grid runs inline on the calling goroutine: dispatching pool workers for a
// few blocks costs more than it saves. A pure function of shape, so it
// cannot perturb results.
const accelMinParallelWork = 16 * 1024

// roundFP16Rows quantizes m through binary16 in place, sharding row ranges
// across the pool. Quantization is element-wise, so sharding is trivially
// bit-identical to tensor.Mat.RoundFP16.
func roundFP16Rows(m tensor.Mat, workers int) {
	const rowsPerShard = 64
	if m.Rows*m.Cols < accelMinParallelWork || workers <= 1 {
		fp16.RoundSlice(m.Data)
		return
	}
	shards := (m.Rows + rowsPerShard - 1) / rowsPerShard
	tensor.ParallelFor(shards, workers, func(sh int) {
		lo := sh * rowsPerShard
		hi := lo + rowsPerShard
		if hi > m.Rows {
			hi = m.Rows
		}
		fp16.RoundSlice(m.Data[lo*m.Cols : hi*m.Cols])
	})
}

// treeAddVec reduces per-chunk FP32 accumulators with the fixed-shape
// stride-doubling tree: parts[i] absorbs parts[i+stride] element-wise for
// stride 1, 2, 4, …. The combination order depends only on len(parts), so
// goroutine completion order can never reach a bit. Returns parts[0].
//
//lint:allow floataccum fixed-tree FP32 adds mirror the hardware's lane reduction
func treeAddVec(parts [][]float32) []float32 {
	for stride := 1; stride < len(parts); stride *= 2 {
		for i := 0; i+stride < len(parts); i += 2 * stride {
			dst, src := parts[i], parts[i+stride]
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
	return parts[0]
}

// AttentionWorkers computes Attention with an explicit worker count. The
// padded sequence splits into block-aligned chunks of
// attention.ChunkSpan(HeadDim, BlockTokens) tokens; (group × chunk) work
// items fill index-owned score and block-stat slots (phase 1: query-key
// product + per-block softmax statistics), the per-group statistics fold
// serially in block order, and a second (group × chunk) pass accumulates
// score·V into per-chunk slots that reduce through the fixed tree (phase 2).
// Results are bit-identical for every workers value, 1 included; Attention
// delegates here with the default worker count.
func (a *Accelerator) AttentionWorkers(q, k, v tensor.Mat, mask []bool, hostScores, hostV tensor.Mat, workers int) (tensor.Mat, error) {
	return a.attention(q, k, v, mask, hostScores, hostV, attention.ChunkSpan(a.cfg.HeadDim, BlockTokens), workers)
}

// attention is AttentionWorkers over chunks of a given span, which must be a
// positive multiple of BlockTokens.
//
//lint:allow floataccum per-chunk score·V slots model the hardware's FP32 accumulators
func (a *Accelerator) attention(q, k, v tensor.Mat, mask []bool, hostScores, hostV tensor.Mat, span, workers int) (tensor.Mat, error) {
	if err := a.validateAttention(q, k, v, hostScores, hostV); err != nil {
		return tensor.Mat{}, err
	}

	// Storage precision emulation; K/V quantization shards across the pool.
	q = q.Clone().RoundFP16()
	k = k.Clone()
	v = v.Clone()
	roundFP16Rows(k, workers)
	roundFP16Rows(v, workers)

	s := k.Rows
	sPad := PadSequence(s)
	scale := float32(1 / math.Sqrt(float64(a.cfg.HeadDim)))
	nb := (sPad + BlockTokens - 1) / BlockTokens
	nChunks := (sPad + span - 1) / span
	dg := a.cfg.DGroup
	if dg*sPad < accelMinParallelWork {
		workers = 1
	}

	out := tensor.New(q.Rows, v.Cols)

	// Index-owned slots: per-group score rows (SM-Buf contents, stored
	// FP16), per-block softmax statistics, per-(group, chunk) accumulators.
	scores := make([]float32, dg*sPad)
	blockM := make([]float64, dg*nb)
	blockZ := make([]float64, dg*nb)
	acc := make([][]float32, dg*nChunks)
	for i := range acc {
		acc[i] = make([]float32, v.Cols)
	}

	// Phase 1: query-key product unit + per-block statistics. Chunks are
	// block-aligned, so each block's score slice and stat slot have exactly
	// one writer.
	tensor.ParallelFor(dg*nChunks, workers, func(it int) {
		g, c := it/nChunks, it%nChunks
		clo := c * span
		chi := clo + span
		if chi > sPad {
			chi = sPad
		}
		qrow := q.Row(g)
		for lo := clo; lo < chi; lo += BlockTokens {
			hi := lo + BlockTokens
			if hi > sPad {
				hi = sPad
			}
			blockScores := a.qkBlock(qrow, k, lo, hi, scale)
			fp16.RoundSlice(blockScores)
			copy(scores[g*sPad+lo:g*sPad+hi], blockScores)
			bm := blockMask(mask, lo, hi, s)
			mB, sB := attention.BlockStats(blockScores, bm)
			b := lo / BlockTokens
			blockM[g*nb+b], blockZ[g*nb+b] = mB, sB
		}
	})

	// Per-group serial fold of block statistics in index order — the same
	// association as the serial dataflow — then the host delayed-writeback
	// partial merge, exactly as in the serial reference.
	stats := make([]attention.Stats, dg)
	partials := make([]attention.Partial, dg)
	for g := 0; g < dg; g++ {
		st := attention.NewStats()
		for b := 0; b < nb; b++ {
			st.UpdateBlock(blockM[g*nb+b], blockZ[g*nb+b])
		}
		if hostScores.Rows > 0 {
			hp := attention.PartialFromScores(hostScores.Row(g), hostV)
			partials[g] = hp
			st.Merge(hp.Stats)
		}
		stats[g] = st
	}

	// Phase 2: softmax normalization + score-value product units. Every
	// chunk accumulates into its own slot with the settled global max.
	tensor.ParallelFor(dg*nChunks, workers, func(it int) {
		g, c := it/nChunks, it%nChunks
		clo := c * span
		chi := clo + span
		if chi > sPad {
			chi = sPad
		}
		st := stats[g]
		arow := acc[it]
		grow := scores[g*sPad : (g+1)*sPad]
		for lo := clo; lo < chi; lo += BlockTokens {
			hi := lo + BlockTokens
			if hi > sPad {
				hi = sPad
			}
			bm := blockMask(mask, lo, hi, s)
			for i := lo; i < hi; i++ {
				x := grow[i]
				if bm != nil && !bm[i-lo] {
					x = attention.MaskValue
				}
				w := float32(math.Exp(float64(x) - st.M))
				if w == 0 || i >= s {
					continue
				}
				vrow := v.Row(i)
				for j := range arow {
					arow[j] += w * vrow[j]
				}
			}
		}
	})

	// Fixed-tree merge per group, then the host partial fold and the global
	// normalization (second pass, line 11).
	for g := 0; g < dg; g++ {
		orow := out.Row(g)
		if nChunks > 0 {
			copy(orow, treeAddVec(acc[g*nChunks:(g+1)*nChunks]))
		}
		st := stats[g]
		if hostScores.Rows > 0 {
			r := float32(math.Exp(partials[g].Stats.M - st.M))
			for j := range orow {
				orow[j] += partials[g].Acc[j] * r
			}
		}
		inv := float32(1 / st.Z)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out, nil
}
