// Package itrs embeds a reconstruction of the ITRS 1999 roadmap series the
// paper's Figures 2 and 3 are computed from: the cost-performance MPU line
// (technology node, transistors per chip, die area at production) together
// with the paper's stated economic constants (a $34 die budget, 8 $/cm²
// manufacturing cost, 80% yield).
//
// The 1999 roadmap document itself is not redistributable, so the numbers
// here are reconstructed from its public parameters: ×2 functions per chip
// every two years, ×0.7 feature-size shrink every three years starting at
// 180 nm/21 M transistors in 1999, and ≈13% die-size growth per node. The
// derived quantities the paper plots (the implied and required s_d and
// their ratio) depend only on these growth laws, not on transcription
// detail; see DESIGN.md §3.
package itrs

import "fmt"

// Node is one technology generation of the roadmap's cost-performance MPU
// line.
type Node struct {
	Year        int
	LambdaUM    float64 // minimum feature size, µm
	Transistors float64 // per chip at production
	DieAreaCM2  float64 // at production
}

// Paper-stated constants for the Figure 3 computation (§2.2.3).
const (
	// TargetDieCost is the maximum acceptable cost of the MPU die, $.
	TargetDieCost = 34.0
	// CostPerCM2 is the assumed manufacturing cost per cm², $/cm².
	CostPerCM2 = 8.0
	// Yield is the assumed manufacturing yield.
	Yield = 0.8
)

// mpu1999 is the reconstructed cost-performance MPU roadmap.
var mpu1999 = []Node{
	{Year: 1999, LambdaUM: 0.180, Transistors: 21e6, DieAreaCM2: 1.70},
	{Year: 2002, LambdaUM: 0.130, Transistors: 59e6, DieAreaCM2: 1.93},
	{Year: 2005, LambdaUM: 0.100, Transistors: 166e6, DieAreaCM2: 2.19},
	{Year: 2008, LambdaUM: 0.070, Transistors: 467e6, DieAreaCM2: 2.48},
	{Year: 2011, LambdaUM: 0.050, Transistors: 1310e6, DieAreaCM2: 2.82},
	{Year: 2014, LambdaUM: 0.035, Transistors: 3680e6, DieAreaCM2: 3.20},
}

// Nodes returns the roadmap nodes in chronological order. The returned
// slice is a copy; callers may modify it freely.
func Nodes() []Node {
	return append([]Node(nil), mpu1999...)
}

// Validate reports the first invalid field of n, or nil.
func (n Node) Validate() error {
	switch {
	case n.LambdaUM <= 0:
		return fmt.Errorf("itrs: node %d: feature size must be positive", n.Year)
	case n.Transistors <= 0:
		return fmt.Errorf("itrs: node %d: transistor count must be positive", n.Year)
	case n.DieAreaCM2 <= 0:
		return fmt.Errorf("itrs: node %d: die area must be positive", n.Year)
	}
	return nil
}
