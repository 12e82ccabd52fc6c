// Package accel models the HILOS near-storage attention accelerator (§4.4):
//
//   - a functional model of the four pipeline units of Figure 7 — the
//     query-key product unit with online 128×128 block transpose, the
//     softmax statistics aggregation unit, the softmax normalization unit,
//     and the score–value product unit — operating on FP16-stored data with
//     FP32 accumulation;
//   - a cycle-accurate-in-expectation performance model of the pipelined
//     dataflow (block steady state, DRAM roofline, exponential-unit limits);
//   - the FPGA resource/power model reproducing Table 3; and
//   - the §7.1 ISP ASIC projection.
package accel

import (
	"fmt"

	"repro/internal/tensor"
)

// BlockTokens is the temporal-architecture block size: the accelerator
// processes attention in blocks of 128 tokens (§4.4).
const BlockTokens = 128

// Config describes one accelerator instance.
type Config struct {
	DGroup  int // query heads sharing one KV cache (1 for MHA)
	HeadDim int // per-head dimension d (≤ 128)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DGroup < 1 {
		return fmt.Errorf("accel: d_group must be ≥ 1, got %d", c.DGroup)
	}
	if c.HeadDim < 1 || c.HeadDim > 128 {
		return fmt.Errorf("accel: head dim must be in [1,128], got %d", c.HeadDim)
	}
	return nil
}

// Accelerator is the functional model. Its Attention method is bit-faithful
// to the hardware dataflow: blocked K/V consumption, local block transpose,
// two-pass softmax with streaming statistics, and host-precomputed partial
// scores merged for the delayed-writeback path.
type Accelerator struct {
	cfg Config
}

// New returns a functional accelerator model.
func New(cfg Config) (*Accelerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Accelerator{cfg: cfg}, nil
}

// TransposeBlock performs the online in-place 128×128 block transposition of
// the query-key product unit (Figure 7d): a local square block of K is
// loaded into K-Buf, transposed into KT-Buf, and streamed to the MACs. The
// input block may be smaller than 128×128 at sequence edges.
func TransposeBlock(block tensor.Mat) tensor.Mat {
	if block.Rows > BlockTokens || block.Cols > BlockTokens {
		panic(fmt.Sprintf("accel: block %dx%d exceeds 128x128 buffer", block.Rows, block.Cols))
	}
	return block.T()
}

// PadSequence zero-pads s up to a multiple of 32 to facilitate AXI burst
// transactions (§5.4 "input sequences are zero-padded to multiples of 32").
func PadSequence(s int) int {
	const axiPad = 32
	return (s + axiPad - 1) / axiPad * axiPad
}

// Attention computes exact attention for dGroup query rows sharing the K/V
// cache, using the hardware dataflow. mask marks valid cache positions
// (padding from PadSequence is masked automatically). The optional
// hostScores/hostV carry the delayed-writeback partial inputs: scaled QKᵀ
// scalars precomputed by the host CPU over buffered keys, and the buffered
// value rows (Fig. 6b); pass empty mats when unused.
//
// Inputs are quantized through FP16 (storage precision); accumulation is
// FP32, matching §5.4. The per-block qk/softmax/sv stages shard across the
// kernel worker pool (see AttentionWorkers); results are bit-identical for
// every worker count.
func (a *Accelerator) Attention(q, k, v tensor.Mat, mask []bool, hostScores tensor.Mat, hostV tensor.Mat) (tensor.Mat, error) {
	return a.AttentionWorkers(q, k, v, mask, hostScores, hostV, tensor.DefaultWorkers())
}

// validateAttention checks the shared shape contract of the attention entry
// points.
func (a *Accelerator) validateAttention(q, k, v, hostScores, hostV tensor.Mat) error {
	if q.Rows != a.cfg.DGroup {
		return fmt.Errorf("accel: got %d query rows, configured d_group %d", q.Rows, a.cfg.DGroup)
	}
	if q.Cols != a.cfg.HeadDim || k.Cols != a.cfg.HeadDim {
		return fmt.Errorf("accel: head dim mismatch: q %d, k %d, cfg %d", q.Cols, k.Cols, a.cfg.HeadDim)
	}
	if k.Rows != v.Rows {
		return fmt.Errorf("accel: k rows %d != v rows %d", k.Rows, v.Rows)
	}
	if hostScores.Rows > 0 && (hostScores.Rows != q.Rows || hostScores.Cols != hostV.Rows) {
		return fmt.Errorf("accel: host partial shape mismatch")
	}
	return nil
}

// qkBlock is the query-key product unit for one block [lo,hi): it loads the
// K block, performs the local online transpose, and computes scaled q·Kᵀ.
//
//lint:allow floataccum the per-token dot chain is the modeled 128-lane FP32 MAC array
func (a *Accelerator) qkBlock(qrow []float32, k tensor.Mat, lo, hi int, scale float32) []float32 {
	n := hi - lo
	out := make([]float32, n)
	realHi := hi
	if realHi > k.Rows {
		realHi = k.Rows
	}
	if realHi <= lo {
		return out // fully padded block: scores stay 0, masked later
	}
	kBlock := k.SliceRows(lo, realHi)
	kt := TransposeBlock(kBlock) // KT-Buf: d × tokens
	// MAC array: for each token column of KT, dot with q.
	for t := 0; t < kt.Cols; t++ {
		var acc float32
		for dim := 0; dim < kt.Rows; dim++ {
			acc += qrow[dim] * kt.At(dim, t)
		}
		out[t] = acc * scale
	}
	return out
}

// blockMask returns the validity mask slice for block [lo,hi): user-provided
// mask entries for real tokens, false for pad positions ≥ s. Returns nil if
// everything in the block is valid.
func blockMask(mask []bool, lo, hi, s int) []bool {
	if mask == nil && hi <= s {
		return nil
	}
	bm := make([]bool, hi-lo)
	for i := lo; i < hi; i++ {
		switch {
		case i >= s:
			bm[i-lo] = false
		case mask != nil:
			bm[i-lo] = mask[i]
		default:
			bm[i-lo] = true
		}
	}
	return bm
}
