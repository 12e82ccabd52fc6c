package attention

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// matsEqual reports bit-identity (reflect.DeepEqual on the backing data).
func matsEqual(a, b tensor.Mat) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && reflect.DeepEqual(a.Data, b.Data)
}

var workerCounts = []int{1, 2, 3, 8}

// TestBlockedWorkersBitIdentical: for shapes spanning prefill (many rows),
// decode (one row, long context), ragged tails and tiny blocks, every worker
// count must produce bit-identical output — the fixed-shape tree merge and
// index-owned partials make the result a pure function of shape. The span is
// 128 tokens so small inputs exercise many-chunk merges.
func TestBlockedWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	shapes := []struct{ rows, s, d, bs int }{
		{1, 1000, 32, 64},  // decode: 1 row, many chunks
		{1, 37, 16, 8},     // ragged tail
		{7, 300, 24, 32},   // prefill: rows × chunks grid
		{16, 64, 16, 128},  // blockSize > context
		{3, 513, 8, 1},     // blockSize 1
		{2, 4096, 16, 128}, // above minParallelWork
	}
	for _, sh := range shapes {
		q := tensor.RandMat(rng, sh.rows, sh.d, 1)
		k := tensor.RandMat(rng, sh.s, sh.d, 1)
		v := tensor.RandMat(rng, sh.s, sh.d, 1)
		var mask []bool
		if sh.s > 10 {
			mask = make([]bool, sh.s)
			for i := range mask {
				mask[i] = rng.Intn(8) != 0
			}
		}
		span := alignSpan(128, sh.bs)
		base := blocked(q, k, v, mask, sh.bs, span, 1)
		for _, w := range workerCounts[1:] {
			got := blocked(q, k, v, mask, sh.bs, span, w)
			if !matsEqual(base, got) {
				t.Fatalf("shape %+v: workers=%d differs from workers=1", sh, w)
			}
		}
		// Sanity anchor: parallel output still matches the exact reference.
		ref := Ref(q, k, v, mask)
		if d := tensor.MaxAbsDiff(base, ref); d > tol {
			t.Fatalf("shape %+v: parallel differs from Ref by %v", sh, d)
		}
	}
}

// TestGQAWorkersBitIdenticalToBlocked: the shared-K/V-traversal GQA dataflow
// must be bitwise equal to per-head BlockedWorkers (same blocks, same fold
// order, same tree) for every worker count.
func TestGQAWorkersBitIdenticalToBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, sh := range []struct{ rows, s, d, bs int }{
		{4, 500, 16, 32},
		{8, 63, 8, 16},
		{1, 700, 32, 64},
	} {
		q := tensor.RandMat(rng, sh.rows, sh.d, 1)
		k := tensor.RandMat(rng, sh.s, sh.d, 1)
		v := tensor.RandMat(rng, sh.s, sh.d, 1)
		span := alignSpan(96, sh.bs)
		want := blocked(q, k, v, nil, sh.bs, span, 1)
		for _, w := range workerCounts {
			got := gqa(q, k, v, nil, sh.bs, span, w)
			if !matsEqual(want, got) {
				t.Fatalf("shape %+v: GQA workers=%d differs from Blocked", sh, w)
			}
		}
	}
}

// TestTopKBlocksWorkersBitIdentical covers both parallel dataflows: the
// multi-row row shard and the single-row chunked score+pool phase.
func TestTopKBlocksWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, sh := range []struct{ rows, s, d, keep, bs int }{
		{1, 800, 16, 5, 16}, // decode: chunked phase 1
		{1, 801, 16, 3, 16}, // ragged tail
		{6, 400, 16, 4, 32}, // row shard
		{3, 100, 8, 99, 16}, // keep-everything degenerate
	} {
		q := tensor.RandMat(rng, sh.rows, sh.d, 1)
		k := tensor.RandMat(rng, sh.s, sh.d, 1)
		v := tensor.RandMat(rng, sh.s, sh.d, 1)
		span := alignSpan(64, sh.bs)
		base := topKBlocks(q, k, v, nil, sh.keep, sh.bs, span, 1)
		for _, w := range workerCounts[1:] {
			got := topKBlocks(q, k, v, nil, sh.keep, sh.bs, span, w)
			if !matsEqual(base, got) {
				t.Fatalf("shape %+v: workers=%d differs from workers=1", sh, w)
			}
		}
	}
}

// TestChunkPartitionPureFunctionOfShape: the chunk grid may depend on shape
// only — never on worker count — and must
// tile the token range exactly for every (headDim, blockSize) pair.
func TestChunkPartitionPureFunctionOfShape(t *testing.T) {
	for _, d := range []int{1, 8, 64, 128, 4096} {
		for _, bs := range []int{1, 16, 128, 4096, 100000} {
			span := ChunkSpan(d, bs)
			if span < bs || span%bs != 0 {
				t.Fatalf("headDim %d blockSize %d: span %d not a positive multiple", d, bs, span)
			}
			for _, kRows := range []int{1, bs, bs + 1, 3*span - 1, 3 * span} {
				n := chunkCountFor(kRows, span)
				if (n-1)*span >= kRows || n*span < kRows {
					t.Fatalf("headDim %d blockSize %d kRows %d: %d chunks of span %d do not tile", d, bs, kRows, n, span)
				}
			}
		}
	}
}

// TestChunkSpanTracksCacheBudget: the span is CacheBudgetBytes over one K
// plus one V row at FP32, scaling inversely with head dimension, clamped to
// [minChunkTokens, maxChunkTokens] and block-aligned.
func TestChunkSpanTracksCacheBudget(t *testing.T) {
	for _, c := range []struct{ d, bs, want int }{
		{64, 128, 2048},             // 1 MiB / (2·64·4)
		{128, 128, 1024},            // 1 MiB / (2·128·4)
		{1, 128, maxChunkTokens},    // 131072 clamps down
		{1024, 128, minChunkTokens}, // 128 clamps up
		{1024, 100, 200},            // clamp floor, then block-aligned
		{64, 4096, 4096},            // span below one block becomes one block
	} {
		if got := ChunkSpan(c.d, c.bs); got != c.want {
			t.Errorf("ChunkSpan(%d, %d) = %d, want %d", c.d, c.bs, got, c.want)
		}
	}
}

// TestTreeMergeFixedShape: the tree reduction must equal a left-to-right
// serial fold of the same per-chunk partials... not bitwise (that is exactly
// the point of fixing the shape), but within FP32 tolerance — and repeated
// runs over the same parts layout must be bitwise stable.
func TestTreeMergeMatchesSerialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, nChunks := range []int{1, 2, 3, 5, 8, 13} {
		s, dv := nChunks*20, 8
		k := tensor.RandMat(rng, s, dv, 1)
		v := tensor.RandMat(rng, s, dv, 1)
		q := tensor.RandMat(rng, 1, dv, 1)
		build := func() []Partial {
			parts := make([]Partial, nChunks)
			for c := range parts {
				parts[c] = NewPartial(dv)
				blk := make([]float32, 20)
				chunkPartial(&parts[c], q.Row(0), k, v, nil, 0.25, 20, c*20, (c+1)*20, blk)
			}
			return parts
		}
		serial := build()
		whole := &serial[0]
		for i := 1; i < len(serial); i++ {
			whole.Merge(serial[i])
		}
		tree1 := treeMerge(build())
		tree2 := treeMerge(build())
		if !reflect.DeepEqual(tree1.Acc, tree2.Acc) || tree1.Stats != tree2.Stats {
			t.Fatalf("nChunks=%d: tree merge not deterministic", nChunks)
		}
		f1, f2 := whole.Finalize(), tree1.Finalize()
		for i := range f1 {
			if d := math.Abs(float64(f1[i]) - float64(f2[i])); d > tol {
				t.Fatalf("nChunks=%d: tree vs serial fold differ at %d by %v", nChunks, i, d)
			}
		}
	}
}

// FuzzParallelBlockedEquivalence fuzzes shapes, block sizes and chunk
// lengths, asserting multi-worker Blocked, GQA and TopKBlocks (keeping one
// block in eight) stay bit-identical to their one-worker runs. The chunk
// length is block-aligned as ChunkSpan aligns its spans.
func FuzzParallelBlockedEquivalence(f *testing.F) {
	f.Add(int64(1), 1, 300, 32, 40)
	f.Add(int64(2), 5, 100, 16, 16)
	f.Add(int64(3), 2, 65, 1, 7)
	f.Fuzz(func(t *testing.T, seed int64, rows, s, bs, chunk int) {
		if rows < 1 || rows > 8 || s < 1 || s > 1024 || bs < 1 || bs > 256 || chunk < 1 || chunk > 512 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		q := tensor.RandMat(rng, rows, 16, 1)
		k := tensor.RandMat(rng, s, 16, 1)
		v := tensor.RandMat(rng, s, 16, 1)
		span := alignSpan(chunk, bs)
		keep := max(1, (s+bs-1)/bs/8)
		base := blocked(q, k, v, nil, bs, span, 1)
		gbase := gqa(q, k, v, nil, bs, span, 1)
		tbase := topKBlocks(q, k, v, nil, keep, bs, span, 1)
		for _, w := range []int{2, 3, 8} {
			if got := blocked(q, k, v, nil, bs, span, w); !matsEqual(base, got) {
				t.Fatalf("rows=%d s=%d bs=%d chunk=%d: Blocked workers=%d diverged", rows, s, bs, chunk, w)
			}
			if got := gqa(q, k, v, nil, bs, span, w); !matsEqual(gbase, got) {
				t.Fatalf("rows=%d s=%d bs=%d chunk=%d: GQA workers=%d diverged", rows, s, bs, chunk, w)
			}
			if got := topKBlocks(q, k, v, nil, keep, bs, span, w); !matsEqual(tbase, got) {
				t.Fatalf("rows=%d s=%d bs=%d chunk=%d: TopKBlocks workers=%d diverged", rows, s, bs, chunk, w)
			}
		}
		if !matsEqual(base, gbase) {
			t.Fatalf("rows=%d s=%d bs=%d chunk=%d: GQA diverged from Blocked", rows, s, bs, chunk)
		}
	})
}
