package attention

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

const tol = 2e-4 // FP32 accumulation tolerance between algorithm variants

func randQKV(rng *rand.Rand, nq, s, d, dv int) (q, k, v tensor.Mat) {
	q = tensor.RandMat(rng, nq, d, 1)
	k = tensor.RandMat(rng, s, d, 1)
	v = tensor.RandMat(rng, s, dv, 1)
	return q, k, v
}

func TestBlockedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, s := range []int{1, 3, 127, 128, 129, 400} {
		q, k, v := randQKV(rng, 2, s, 32, 32)
		want := Ref(q, k, v, nil)
		for _, bs := range []int{1, 16, 128} {
			got := Blocked(q, k, v, nil, bs)
			if d := tensor.MaxAbsDiff(got, want); d > tol {
				t.Errorf("s=%d bs=%d: blocked differs from ref by %v", s, bs, d)
			}
		}
	}
}

func TestBlockedWithMask(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := 200
	q, k, v := randQKV(rng, 1, s, 16, 16)
	mask := make([]bool, s)
	for i := range mask {
		mask[i] = rng.Intn(4) != 0 // ~25% padding
	}
	want := Ref(q, k, v, mask)
	got := Blocked(q, k, v, mask, 64)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("masked blocked differs from ref by %v", d)
	}
}

// Attention output is a convex combination of value rows: each output
// coordinate lies within [min, max] of the corresponding value column.
func TestAttentionConvexity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, k, v := randQKV(rng, 1, 50, 8, 4)
		out := Blocked(q, k, v, nil, 16)
		for j := 0; j < v.Cols; j++ {
			lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
			for i := 0; i < v.Rows; i++ {
				x := v.At(i, j)
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			o := out.At(0, j)
			if o < lo-1e-4 || o > hi+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// With a single cached token, attention returns that token's value exactly.
func TestSingleTokenIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q, k, v := randQKV(rng, 3, 1, 8, 5)
	out := Ref(q, k, v, nil)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if math.Abs(float64(out.At(i, j)-v.At(0, j))) > 1e-6 {
				t.Fatalf("single-token attention not identity at (%d,%d)", i, j)
			}
		}
	}
}

func TestPartialMergeEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q, k, v := randQKV(rng, 1, 300, 16, 16)
	whole := partialOverRange(q.Row(0), k, v, nil, 0, 0)
	// Split at arbitrary points and merge.
	for _, cut := range []int{1, 100, 299} {
		a := partialOverRange(q.Row(0), k.SliceRows(0, cut), v.SliceRows(0, cut), nil, 0, 0)
		b := partialOverRange(q.Row(0), k.SliceRows(cut, 300), v.SliceRows(cut, 300), nil, cut, 0)
		a.Merge(b)
		fa, fw := a.Finalize(), whole.Finalize()
		for i := range fa {
			if math.Abs(float64(fa[i]-fw[i])) > tol {
				t.Fatalf("cut=%d: merged partial differs at %d: %v vs %v", cut, i, fa[i], fw[i])
			}
		}
	}
}

func TestPartialMergeEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q, k, v := randQKV(rng, 1, 10, 8, 8)
	p := partialOverRange(q.Row(0), k, v, nil, 0, 0)
	before := p.Finalize()
	p.Merge(NewPartial(8)) // identity merge
	after := p.Finalize()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("identity merge changed result")
		}
	}
}

func TestDelayedWritebackExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sOld, sBuf := 256, 16 // spill interval c=16 worth of buffered tokens
	q := tensor.RandMat(rng, 1, 32, 1)
	k := tensor.RandMat(rng, sOld+sBuf, 32, 1)
	v := tensor.RandMat(rng, sOld+sBuf, 32, 1)
	want := Ref(q, k, v, nil)
	got := DelayedWriteback(q,
		k.SliceRows(0, sOld), v.SliceRows(0, sOld),
		k.SliceRows(sOld, sOld+sBuf), v.SliceRows(sOld, sOld+sBuf),
		nil, 128)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("delayed writeback differs from full attention by %v", d)
	}
}

func TestDelayedWritebackMultiQueryAndMask(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sOld, sBuf := 100, 8
	q := tensor.RandMat(rng, 3, 16, 1)
	k := tensor.RandMat(rng, sOld+sBuf, 16, 1)
	v := tensor.RandMat(rng, sOld+sBuf, 16, 1)
	mask := make([]bool, sOld+sBuf)
	for i := range mask {
		mask[i] = i%7 != 0
	}
	want := Ref(q, k, v, mask)
	got := DelayedWriteback(q,
		k.SliceRows(0, sOld), v.SliceRows(0, sOld),
		k.SliceRows(sOld, sOld+sBuf), v.SliceRows(sOld, sOld+sBuf),
		mask, 64)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("masked multi-query writeback differs by %v", d)
	}
}

func TestGQAMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dGroup := 5
	q, k, v := randQKV(rng, dGroup, 100, 16, 16)
	want := Ref(q, k, v, nil)
	got := GQA(q, k, v, nil, 128)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("GQA differs from per-query reference by %v", d)
	}
}

func TestScoresMatchRefWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	q, k, v := randQKV(rng, 1, 30, 8, 8)
	sc := Scores(q, k)
	p := SoftmaxRef(sc.Row(0))
	// Reconstruct attention from scores and compare with Ref.
	out := make([]float32, v.Cols)
	for i, w := range p {
		for j := range out {
			out[j] += w * v.At(i, j)
		}
	}
	want := Ref(q, k, v, nil)
	for j := range out {
		if math.Abs(float64(out[j]-want.At(0, j))) > tol {
			t.Fatalf("score-reconstructed attention differs at %d", j)
		}
	}
}

func TestSplitHeads(t *testing.T) {
	nX, nKV, err := SplitHeads(1536, 0.5) // bs=16 × 96 heads, α=50%
	if err != nil || nX != 768 || nKV != 768 {
		t.Errorf("SplitHeads(1536, 0.5) = %d, %d, %v", nX, nKV, err)
	}
	if _, _, err := SplitHeads(10, 1.5); err == nil {
		t.Error("alpha > 1 not rejected")
	}
	nX, nKV, _ = SplitHeads(10, 0)
	if nX != 0 || nKV != 10 {
		t.Errorf("alpha=0 split = %d, %d", nX, nKV)
	}
}

func TestXCacheAttendMatchesKVPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s, h, d := 64, 24, 8
	x := tensor.RandMat(rng, s, h, 1).RoundFP16()
	p := Projections{
		Wq: tensor.RandMat(rng, h, d, 0.3).RoundFP16(),
		Wk: tensor.RandMat(rng, h, d, 0.3).RoundFP16(),
		Wv: tensor.RandMat(rng, h, d, 0.3).RoundFP16(),
	}
	_, k, v := ProjectQKV(x, p)
	q := tensor.RandMat(rng, 1, d, 1)
	viaKV := Blocked(q, k, v, nil, 32)
	viaX := XCacheAttend(q, x, p, nil, 32)
	if d := tensor.MaxAbsDiff(viaKV, viaX); d != 0 {
		t.Errorf("X-cache path differs from KV path by %v (must be exact)", d)
	}
}

func TestTopKBlocksKeepAllIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	q, k, v := randQKV(rng, 2, 128, 16, 16)
	want := Ref(q, k, v, nil)
	got := TopKBlocks(q, k, v, nil, 8, 16) // all 8 blocks kept
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("full block retention differs from exact by %v", d)
	}
}

func TestTopKBlocksDropsLowScoringBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 16
	q := tensor.RandMat(rng, 1, d, 1)
	// Two blocks: the first leans toward q, the second away from it.
	k := tensor.New(32, d)
	v := tensor.RandMat(rng, 32, d, 1)
	for i := 0; i < 16; i++ {
		copy(k.Row(i), q.Row(0))
	}
	for i := 16; i < 32; i++ {
		for j := 0; j < d; j++ {
			k.Set(i, j, -q.At(0, j))
		}
	}
	// Keeping one block must reproduce attention over the first block only.
	got := TopKBlocks(q, k, v, nil, 1, 16)
	want := Ref(q, k.SliceRows(0, 16), v.SliceRows(0, 16), nil)
	if diff := tensor.MaxAbsDiff(got, want); diff > tol {
		t.Errorf("kept-block attention differs by %v", diff)
	}
}

func TestTopKBlocksRaggedTail(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// 40 tokens with block size 16: the last block has 8 tokens; block
	// means must not be skewed by the shorter tail.
	q, k, v := randQKV(rng, 1, 40, 8, 8)
	got := TopKBlocks(q, k, v, nil, 3, 16) // keep everything
	want := Ref(q, k, v, nil)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("ragged-tail full retention differs by %v", d)
	}
}

func TestTopKBlocksMask(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	q, k, v := randQKV(rng, 1, 64, 8, 8)
	mask := make([]bool, 64)
	for i := range mask {
		mask[i] = i < 48 // last block fully padded
	}
	got := TopKBlocks(q, k, v, mask, 3, 16)
	want := Ref(q, k.SliceRows(0, 48), v.SliceRows(0, 48), nil)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("masked block retention differs by %v", d)
	}
}
