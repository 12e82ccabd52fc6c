package attention

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Ref computes exact multi-head attention for a single head:
// softmax(q·Kᵀ/√d)·V for each query row of q. K and V have one row per
// cached token; mask (optional, len == K.Rows) marks valid positions.
// This is the golden reference every optimized path is tested against.
//
//lint:allow floataccum reference kernel deliberately models the FP32 accumulator datapath
func Ref(q, k, v tensor.Mat, mask []bool) tensor.Mat {
	d := q.Cols
	if k.Cols != d {
		panic(fmt.Sprintf("attention: q dim %d != k dim %d", d, k.Cols))
	}
	if k.Rows != v.Rows {
		panic(fmt.Sprintf("attention: k rows %d != v rows %d", k.Rows, v.Rows))
	}
	scale := float32(1 / math.Sqrt(float64(d)))
	out := tensor.New(q.Rows, v.Cols)
	scores := make([]float32, k.Rows)
	for qi := 0; qi < q.Rows; qi++ {
		qrow := q.Row(qi)
		for ki := 0; ki < k.Rows; ki++ {
			s := tensor.Dot(qrow, k.Row(ki)) * scale
			scores[ki] = applyMask(s, mask, ki)
		}
		p := SoftmaxRef(scores)
		orow := out.Row(qi)
		for ki, w := range p {
			if w == 0 {
				continue
			}
			vrow := v.Row(ki)
			for j := range orow {
				orow[j] += w * vrow[j]
			}
		}
	}
	return out
}

// Scores returns the scaled q·Kᵀ score matrix (one row per query) without
// softmax. Used by the delayed-writeback host precompute (§4.3), where the
// CPU computes partial QKᵀ products over the buffered keys.
func Scores(q, k tensor.Mat) tensor.Mat {
	d := q.Cols
	scale := float32(1 / math.Sqrt(float64(d)))
	out := tensor.New(q.Rows, k.Rows)
	for qi := 0; qi < q.Rows; qi++ {
		qrow := q.Row(qi)
		orow := out.Row(qi)
		for ki := 0; ki < k.Rows; ki++ {
			orow[ki] = tensor.Dot(qrow, k.Row(ki)) * scale
		}
	}
	return out
}

// Partial is an un-normalized attention partial result: for one query, the
// running softmax statistics plus the weighted value accumulator
// acc = Σ exp(score_i − M)·v_i. Two Partials over disjoint token ranges can
// be merged into the exact full-range result; this identity is what lets the
// delayed-writeback path split attention between the NSP accelerator
// (storage-resident tokens) and the host (buffered tokens).
type Partial struct {
	Stats Stats
	Acc   []float32 // length = value dimension
}

// NewPartial returns an identity partial for value dimension dv.
func NewPartial(dv int) Partial {
	return Partial{Stats: NewStats(), Acc: make([]float32, dv)}
}

// Reset returns the partial to the identity state, keeping its accumulator
// storage so one Partial can serve many query rows without reallocating.
func (p *Partial) Reset() {
	p.Stats = NewStats()
	for i := range p.Acc {
		p.Acc[i] = 0
	}
}

// AddToken folds one (score, value-row) pair into the partial. The running
// statistics stay in float64 (matching the streaming update unit's wide
// internal registers); the accumulator arithmetic is pure float32, with the
// rescale and weight converted once per call rather than once per element.
//
//lint:allow floataccum the Partial accumulator itself is the modeled FP32 MAC array
func (p *Partial) AddToken(score float32, vrow []float32) {
	s := float64(score)
	if s > p.Stats.M {
		r := math.Exp(p.Stats.M - s)
		r32 := float32(r)
		for i := range p.Acc {
			p.Acc[i] *= r32
		}
		p.Stats.Z = p.Stats.Z * r
		p.Stats.M = s
	}
	w := math.Exp(s - p.Stats.M)
	p.Stats.Z += w
	w32 := float32(w)
	for i := range p.Acc {
		p.Acc[i] += w32 * vrow[i]
	}
}

// AddBlock folds a whole block of pre-masked scores and the matching value
// rows v[lo:lo+len(scores)] into the partial. This is the accelerator's
// true block dataflow (§5.4): the block's local statistics (the same
// (mB, sB) pair BlockStats produces, reduced inline here so the local
// weights need only one exponential pass) are folded into the running
// statistics exactly as Stats.UpdateBlock does, the accumulator is rescaled
// at most once per block (instead of once per token as repeated AddToken
// calls would), and every weighted value row is then accumulated against
// the settled running maximum.
//
//lint:allow floataccum the Partial accumulator itself is the modeled FP32 MAC array
func (p *Partial) AddBlock(scores []float32, v tensor.Mat, lo int) {
	if len(scores) == 0 {
		return
	}
	// Local block reduction (Algorithm 1 lines 3-4): block maximum, then
	// one exponential per element relative to it.
	mB := math.Inf(-1)
	for _, s := range scores {
		if x := float64(s); x > mB {
			mB = x
		}
	}
	// Streaming fold (Algorithm 1 lines 5-9), with the accumulator rescale
	// hoisted to at most one pass per block.
	rescale := 1.0 // exp(mB − M) once the running maximum has settled
	if mB > p.Stats.M {
		r := math.Exp(p.Stats.M - mB)
		r32 := float32(r)
		for i := range p.Acc {
			p.Acc[i] *= r32
		}
		p.Stats.Z = p.Stats.Z * r
		p.Stats.M = mB
	} else {
		rescale = math.Exp(mB - p.Stats.M)
	}
	r32 := float32(rescale)
	var sB float64
	for j, s := range scores {
		wl := math.Exp(float64(s) - mB)
		sB += wl
		w32 := float32(wl) * r32
		if w32 == 0 {
			continue
		}
		vrow := v.Row(lo + j)
		for i := range p.Acc {
			p.Acc[i] += w32 * vrow[i]
		}
	}
	p.Stats.Z += sB * rescale
}

// Merge folds another partial (over a disjoint token range) into p.
//
//lint:allow floataccum the Partial accumulator itself is the modeled FP32 MAC array
func (p *Partial) Merge(o Partial) {
	if len(p.Acc) != len(o.Acc) {
		panic("attention: partial dim mismatch")
	}
	if math.IsInf(o.Stats.M, -1) {
		return
	}
	if o.Stats.M > p.Stats.M {
		r := math.Exp(p.Stats.M - o.Stats.M)
		r32 := float32(r)
		for i := range p.Acc {
			p.Acc[i] = p.Acc[i]*r32 + o.Acc[i]
		}
		p.Stats.Z = p.Stats.Z*r + o.Stats.Z
		p.Stats.M = o.Stats.M
	} else {
		r := math.Exp(o.Stats.M - p.Stats.M)
		r32 := float32(r)
		for i := range p.Acc {
			p.Acc[i] += o.Acc[i] * r32
		}
		p.Stats.Z += o.Stats.Z * r
	}
}

// Finalize returns the normalized attention output acc/Z.
func (p Partial) Finalize() []float32 {
	out := make([]float32, len(p.Acc))
	p.FinalizeInto(out)
	return out
}

// FinalizeInto writes the normalized attention output acc/Z into dst,
// avoiding Finalize's allocation on reused output rows. The division is
// hoisted to one float64 reciprocal applied across the accumulator.
func (p Partial) FinalizeInto(dst []float32) {
	if p.Stats.Z == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	inv := 1 / p.Stats.Z
	for i, a := range p.Acc {
		dst[i] = float32(float64(a) * inv)
	}
}

// PartialFromScores builds a partial for one query from precomputed scaled
// scores and the corresponding value rows (the host side of the delayed
// writeback, Fig. 6b steps 2-4).
func PartialFromScores(scores []float32, v tensor.Mat) Partial {
	if len(scores) != v.Rows {
		panic("attention: scores/value length mismatch")
	}
	p := NewPartial(v.Cols)
	for i, s := range scores {
		p.AddToken(s, v.Row(i))
	}
	return p
}

// Blocked computes attention with the accelerator's streaming block dataflow:
// K/V are consumed in blocks of blockSize tokens, each block's local softmax
// statistics are folded via the streaming update unit, and the value
// accumulator is rescaled at most once per block (the true flash-attention
// dataflow of §5.4, not a per-token rescale). Work is sharded across the
// kernel worker pool as (query row × K/V chunk) items with scratch drawn
// from sync.Pool arenas; results are bit-identical for every worker count
// (see parallel.go). Output matches Ref within FP32 tolerance for any
// blockSize ≥ 1.
func Blocked(q, k, v tensor.Mat, mask []bool, blockSize int) tensor.Mat {
	return BlockedWorkers(q, k, v, mask, blockSize, tensor.DefaultWorkers())
}

// GQA computes grouped-query attention: dGroup query heads share one K/V
// cache. q holds dGroup query rows (one per head in the group); each K/V
// block is read once and scored against every head in the group, matching
// the accelerator's broadcast to dGroup×128 MAC units. Output has dGroup
// rows, bit-identical to per-head Blocked calls.
func GQA(q, k, v tensor.Mat, mask []bool, blockSize int) tensor.Mat {
	return GQAWorkers(q, k, v, mask, blockSize, tensor.DefaultWorkers())
}

// TopKBlocks computes lossy sparse attention with block-granular KV
// retrieval: the cache is split into blocks of blockSize tokens, each block
// is ranked by its mean score (the pooled metadata a sparse-retrieval
// engine keeps instead of exact per-token scores), and only the keepBlocks
// highest-ranked blocks participate in attention. This is the
// InstAttention-style lossy compression proxy of Fig. 18(c): evidence
// sitting in low-pooled-score blocks is silently dropped. Query rows (or,
// for single-row decode shapes, the score+pool phase) run on the kernel
// worker pool; block selection stays serial and deterministic, and results
// are bit-identical for every worker count (see parallel.go).
func TopKBlocks(q, k, v tensor.Mat, mask []bool, keepBlocks, blockSize int) tensor.Mat {
	return TopKBlocksWorkers(q, k, v, mask, keepBlocks, blockSize, tensor.DefaultWorkers())
}

// topKIndices returns the indices of the k largest scores (k clamped to
// len(scores)), ordered by descending score with earlier indices first
// among ties — the same order the old O(n·k) repeated-selection scan
// produced. Selection runs over a bounded min-heap of size k: the heap
// root is always the weakest kept candidate (lowest score; among equal
// scores, the highest index), so a full scan costs O(n log k).
func topKIndices(scores []float32, k int) []int {
	if k >= len(scores) {
		// The degenerate keep-everything case must still honor the order
		// contract (descending score, ascending index among ties) — callers
		// fold values in selection order, so the order is part of the
		// numeric result.
		idx := make([]int, len(scores))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			ia, ib := idx[a], idx[b]
			return scores[ia] > scores[ib] || (scores[ia] == scores[ib] && ia < ib)
		})
		return idx
	}
	if k <= 0 {
		return nil
	}
	h := make([]int, 0, k)
	// weaker orders candidates by (score asc, index desc): h[0] is the
	// first candidate a better score should evict.
	weaker := func(a, b int) bool {
		return scores[a] < scores[b] || (scores[a] == scores[b] && a > b)
	}
	sift := func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < n && weaker(h[l], h[m]) {
				m = l
			}
			if r < n && weaker(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := range scores {
		if len(h) < k {
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !weaker(h[c], h[p]) {
					break
				}
				h[c], h[p] = h[p], h[c]
				c = p
			}
		} else if weaker(h[0], i) {
			h[0] = i
			sift(0, k)
		}
	}
	// Heap-sort into the selection order of the old implementation:
	// descending score, ascending index among ties (weakest sinks last).
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		sift(0, n)
	}
	return h
}
