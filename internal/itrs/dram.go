package itrs

import (
	"fmt"

	"repro/internal/core"
)

// DRAMNode is one generation of the roadmap's DRAM line. DRAM is the
// counterpoint to the MPU series: its 1T1C cell tiles at ≈8F², so its
// implied s_d stays pinned near 8–10 λ² per transistor across every
// generation — the perfectly regular, precharacterized design style §3.2
// holds up as the model. Memory tracks the roadmap *because* it is
// regular; custom logic cannot.
type DRAMNode struct {
	Year       int
	LambdaUM   float64 // half-pitch/feature size, µm
	Bits       float64 // bits per chip at production
	CellFactor float64 // cell area in F² (≈8 for the era's 1T1C)
	ArrayShare float64 // fraction of die area that is cell array
}

// dram1999 reconstructs the DRAM line with the same growth laws as the
// MPU series: 4× bits per ~3-year generation, ×0.7 feature shrink, 8F²
// cell, ~60% array efficiency.
var dram1999 = []DRAMNode{
	{Year: 1999, LambdaUM: 0.180, Bits: 256e6, CellFactor: 8, ArrayShare: 0.60},
	{Year: 2002, LambdaUM: 0.130, Bits: 1024e6, CellFactor: 8, ArrayShare: 0.60},
	{Year: 2005, LambdaUM: 0.100, Bits: 4096e6, CellFactor: 8, ArrayShare: 0.60},
	{Year: 2008, LambdaUM: 0.070, Bits: 16384e6, CellFactor: 8, ArrayShare: 0.60},
	{Year: 2011, LambdaUM: 0.050, Bits: 65536e6, CellFactor: 8, ArrayShare: 0.60},
	{Year: 2014, LambdaUM: 0.035, Bits: 262144e6, CellFactor: 8, ArrayShare: 0.60},
}

// DRAMNodes returns the DRAM roadmap in chronological order (a copy).
func DRAMNodes() []DRAMNode {
	return append([]DRAMNode(nil), dram1999...)
}

// Validate reports the first invalid field of n, or nil.
func (n DRAMNode) Validate() error {
	switch {
	case n.LambdaUM <= 0:
		return fmt.Errorf("itrs: dram %d: feature size must be positive", n.Year)
	case n.Bits <= 0:
		return fmt.Errorf("itrs: dram %d: bit count must be positive", n.Year)
	case n.CellFactor <= 0:
		return fmt.Errorf("itrs: dram %d: cell factor must be positive", n.Year)
	case !(n.ArrayShare > 0 && n.ArrayShare <= 1):
		return fmt.Errorf("itrs: dram %d: array share must be in (0,1]", n.Year)
	}
	return nil
}

// Transistors returns the chip's transistor count: one per bit in the
// array plus periphery estimated from the non-array area at logic
// density.
func (n DRAMNode) Transistors() float64 {
	// Periphery transistors: non-array area at ~4x the array's area per
	// transistor (sense amps, decoders are denser than random logic).
	periphery := n.Bits * (1 - n.ArrayShare) / n.ArrayShare / 4
	return n.Bits + periphery
}

// DieAreaCM2 returns the die area: array cells at CellFactor·F² plus the
// periphery share.
func (n DRAMNode) DieAreaCM2() float64 {
	f := n.LambdaUM / 1e4 // cm
	arrayArea := n.Bits * n.CellFactor * f * f
	return arrayArea / n.ArrayShare
}

// ImpliedSd returns the whole-die decompression index A/(N·λ²), eq (2)
// inverted through core.SdFromLayout — pinned near
// CellFactor/ArrayShare·(array fraction of transistors) across all
// generations.
func (n DRAMNode) ImpliedSd() (float64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	return core.SdFromLayout(n.DieAreaCM2(), n.Transistors(), n.LambdaUM)
}
