package accel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attention"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

// blockSpan aligns a chunk length the way attention.ChunkSpan aligns its
// spans: at least one hardware block, otherwise rounded down to a block
// multiple.
func blockSpan(tokens int) int {
	return max(BlockTokens, tokens/BlockTokens*BlockTokens)
}

// attentionSerial is the original single-goroutine-per-group dataflow,
// retained as the golden reference for the chunk-sharded datapath: with a
// chunk span past the sequence length the parallel datapath reduces to
// exactly this association, which the equivalence tests pin bit-for-bit.
//
//lint:allow floataccum score·V and host-partial folds model the hardware's FP32 accumulators
func (a *Accelerator) attentionSerial(q, k, v tensor.Mat, mask []bool, hostScores tensor.Mat, hostV tensor.Mat) (tensor.Mat, error) {
	if err := a.validateAttention(q, k, v, hostScores, hostV); err != nil {
		return tensor.Mat{}, err
	}

	// Storage precision emulation.
	q = q.Clone().RoundFP16()
	k = k.Clone().RoundFP16()
	v = v.Clone().RoundFP16()

	s := k.Rows
	sPad := PadSequence(s)
	scale := float32(1 / math.Sqrt(float64(a.cfg.HeadDim)))

	out := tensor.New(q.Rows, v.Cols)
	for g := 0; g < a.cfg.DGroup; g++ {
		qrow := q.Row(g)

		// Pass over blocks: query-key product unit with online transpose,
		// then softmax statistics aggregation (first pass of Algorithm 1).
		scores := make([]float32, sPad) // SM-Buf contents (stored FP16)
		st := attention.NewStats()
		for lo := 0; lo < sPad; lo += BlockTokens {
			hi := lo + BlockTokens
			if hi > sPad {
				hi = sPad
			}
			blockScores := a.qkBlock(qrow, k, lo, hi, scale)
			// Hardware stores QKᵀ results at FP16 before the softmax reads
			// them back from SM-Buf.
			fp16.RoundSlice(blockScores)
			copy(scores[lo:hi], blockScores)
			bm := blockMask(mask, lo, hi, s)
			mB, sB := attention.BlockStats(blockScores, bm)
			st.UpdateBlock(mB, sB)
		}

		// Merge the host-side delayed-writeback partial (new KV entries
		// buffered in host DRAM; the CPU shipped only QKᵀ scalars + V rows).
		partial := attention.NewPartial(v.Cols)
		if hostScores.Rows > 0 {
			hp := attention.PartialFromScores(hostScores.Row(g), hostV)
			partial.Merge(hp)
			st.Merge(hp.Stats)
		}

		// Second pass: softmax normalization unit + score-value product
		// unit, block by block.
		orow := out.Row(g)
		for lo := 0; lo < sPad; lo += BlockTokens {
			hi := lo + BlockTokens
			if hi > sPad {
				hi = sPad
			}
			bm := blockMask(mask, lo, hi, s)
			for i := lo; i < hi; i++ {
				x := scores[i]
				if bm != nil && !bm[i-lo] {
					x = attention.MaskValue
				}
				w := float32(math.Exp(float64(x) - st.M))
				if w == 0 || i >= s {
					continue
				}
				vrow := v.Row(i)
				for j := range orow {
					orow[j] += w * vrow[j]
				}
			}
		}
		// Fold in the host partial accumulator (already scaled to its own
		// max; rescale to the global max).
		if hostScores.Rows > 0 {
			r := float32(math.Exp(partial.Stats.M - st.M))
			for j := range orow {
				orow[j] += partial.Acc[j] * r
			}
		}
		// Division by the global denominator (second pass, line 11).
		inv := float32(1 / st.Z)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out, nil
}

func accelEqual(a, b tensor.Mat) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && reflect.DeepEqual(a.Data, b.Data)
}

// TestAttentionWorkersBitIdentical: the chunk-sharded datapath must produce
// bit-identical output for every worker count, with and without a mask, for
// shapes spanning single-block, ragged-tail, many-chunk and above-work-floor
// grids. The span is two hardware blocks so even short sequences exercise
// multi-chunk merges.
func TestAttentionWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	shapes := []struct{ dg, s, d int }{
		{1, 100, 32},  // sub-block, one chunk
		{2, 300, 16},  // ragged tail, two chunks
		{4, 1000, 64}, // many chunks
		{8, 4096, 16}, // above accelMinParallelWork: pool actually engaged
		{3, 513, 128}, // max head dim, ragged
	}
	const span = 2 * BlockTokens
	for _, sh := range shapes {
		acc, err := New(Config{DGroup: sh.dg, HeadDim: sh.d})
		if err != nil {
			t.Fatal(err)
		}
		q := tensor.RandMat(rng, sh.dg, sh.d, 1)
		k := tensor.RandMat(rng, sh.s, sh.d, 1)
		v := tensor.RandMat(rng, sh.s, sh.d, 1)
		var mask []bool
		if sh.s > 200 {
			mask = make([]bool, sh.s)
			for i := range mask {
				mask[i] = rng.Intn(8) != 0
			}
		}
		base, err := acc.attention(q, k, v, mask, tensor.Mat{}, tensor.Mat{}, span, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8} {
			got, err := acc.attention(q, k, v, mask, tensor.Mat{}, tensor.Mat{}, span, w)
			if err != nil {
				t.Fatal(err)
			}
			if !accelEqual(base, got) {
				t.Fatalf("shape %+v: workers=%d differs from workers=1", sh, w)
			}
		}
	}
}

// TestAttentionWorkersHostPartialBitIdentical: the delayed-writeback merge
// (host partial stats + accumulator fold) happens outside the parallel
// phases and must not break worker-count invariance.
func TestAttentionWorkersHostPartialBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	acc, err := New(Config{DGroup: 4, HeadDim: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := tensor.RandMat(rng, 4, 32, 1)
	k := tensor.RandMat(rng, 700, 32, 1)
	v := tensor.RandMat(rng, 700, 32, 1)
	hostV := tensor.RandMat(rng, 9, 32, 1)
	hostScores := tensor.RandMat(rng, 4, 9, 1)
	const span = 2 * BlockTokens
	base, err := acc.attention(q, k, v, nil, hostScores, hostV, span, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		got, err := acc.attention(q, k, v, nil, hostScores, hostV, span, w)
		if err != nil {
			t.Fatal(err)
		}
		if !accelEqual(base, got) {
			t.Fatalf("host partial: workers=%d differs from workers=1", w)
		}
	}
}

// TestAttentionWorkersOneChunkMatchesSerial: with a span past the padded
// sequence length the grid collapses to one chunk per group and the parallel
// datapath must reproduce the retained serial reference bit-for-bit — the
// same block fold order, the same single accumulator.
func TestAttentionWorkersOneChunkMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const span = 1 << 20 // one chunk: past every padded length below
	for _, sh := range []struct{ dg, s, d int }{
		{1, 300, 64}, {4, 513, 32}, {2, 64, 16},
	} {
		acc, err := New(Config{DGroup: sh.dg, HeadDim: sh.d})
		if err != nil {
			t.Fatal(err)
		}
		q := tensor.RandMat(rng, sh.dg, sh.d, 1)
		k := tensor.RandMat(rng, sh.s, sh.d, 1)
		v := tensor.RandMat(rng, sh.s, sh.d, 1)
		want, err := acc.attentionSerial(q, k, v, nil, tensor.Mat{}, tensor.Mat{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 8} {
			got, err := acc.attention(q, k, v, nil, tensor.Mat{}, tensor.Mat{}, span, w)
			if err != nil {
				t.Fatal(err)
			}
			if !accelEqual(want, got) {
				t.Fatalf("shape %+v workers=%d: one-chunk parallel differs from serial reference", sh, w)
			}
		}
	}
}

// TestTreeAddVecFixedShape: the vector tree reduction must be a pure
// function of the slot count — identical bits on identical inputs — and
// must equal a serial left fold within FP32 tolerance.
func TestTreeAddVecFixedShape(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		build := func() [][]float32 {
			rs := rand.New(rand.NewSource(int64(n)))
			parts := make([][]float32, n)
			for i := range parts {
				parts[i] = make([]float32, 16)
				for j := range parts[i] {
					parts[i][j] = float32(rs.NormFloat64())
				}
			}
			return parts
		}
		serial := make([]float64, 16)
		for _, p := range build() {
			for j, x := range p {
				serial[j] += float64(x)
			}
		}
		a := treeAddVec(build())
		b := treeAddVec(build())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: treeAddVec not deterministic", n)
		}
		for j := range a {
			if d := float64(a[j]) - serial[j]; d > 1e-4 || d < -1e-4 {
				t.Fatalf("n=%d: tree sum %v vs serial fold %v at %d", n, a[j], serial[j], j)
			}
		}
	}
}

// TestCycleModelOverlapped: overlapped mode hides per-block overhead under
// the pipeline — kernel time never exceeds the serialized mode, collapses to
// it when overhead is zero, and is bounded below by the pure overhead chain
// when dispatch dominates.
func TestCycleModelOverlapped(t *testing.T) {
	const s = 64 * 1024
	m := DefaultCycleModel(8, 128)
	ov := m
	ov.Overlapped = true
	if to, ts := ov.KernelTime(s), m.KernelTime(s); to >= ts {
		t.Fatalf("overlapped time %v not below serialized %v", to, ts)
	}
	zero := m
	zero.OverheadCycles = 0
	zeroOv := zero
	zeroOv.Overlapped = true
	if a, b := zero.KernelTime(s), zeroOv.KernelTime(s); a != b {
		t.Fatalf("zero-overhead: overlapped %v != serialized %v", b, a)
	}
	// When overhead dwarfs compute, the overlapped block cost is exactly the
	// overhead chain.
	big := m
	big.OverheadCycles = 1e9
	big.Overlapped = true
	if got := big.blockCost(); got != 1e9 {
		t.Fatalf("overhead-dominated overlapped blockCost = %v, want 1e9", got)
	}
	// Throughput ordering propagates to the Fig. 12(a) kernel rate.
	if ro, rs := ov.KernelKVRate(s), m.KernelKVRate(s); ro <= rs {
		t.Fatalf("overlapped KV rate %v not above serialized %v", ro, rs)
	}
}

// FuzzAccelParallelEquivalence fuzzes group counts, sequence lengths, head
// dims and chunk spans, asserting multi-worker runs stay bit-identical to
// one-worker runs of the same grid. The chunk length is block-aligned as
// attention.ChunkSpan aligns its spans.
func FuzzAccelParallelEquivalence(f *testing.F) {
	f.Add(int64(1), 2, 300, 16, 128)
	f.Add(int64(2), 1, 129, 64, 256)
	f.Add(int64(3), 8, 1024, 8, 384)
	f.Fuzz(func(t *testing.T, seed int64, dg, s, d, chunk int) {
		if dg < 1 || dg > 8 || s < 1 || s > 2048 || d < 1 || d > 128 || chunk < 1 || chunk > 4096 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		acc, err := New(Config{DGroup: dg, HeadDim: d})
		if err != nil {
			t.Fatal(err)
		}
		q := tensor.RandMat(rng, dg, d, 1)
		k := tensor.RandMat(rng, s, d, 1)
		v := tensor.RandMat(rng, s, d, 1)
		span := blockSpan(chunk)
		base, err := acc.attention(q, k, v, nil, tensor.Mat{}, tensor.Mat{}, span, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{3, 8} {
			got, err := acc.attention(q, k, v, nil, tensor.Mat{}, tensor.Mat{}, span, w)
			if err != nil {
				t.Fatal(err)
			}
			if !accelEqual(base, got) {
				t.Fatalf("dg=%d s=%d d=%d chunk=%d: workers=%d diverged", dg, s, d, chunk, w)
			}
		}
	})
}
