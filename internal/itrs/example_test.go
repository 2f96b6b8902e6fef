package itrs_test

import (
	"fmt"

	"repro/internal/itrs"
)

// The Figure 2/3 derivation for the roadmap's first node.
func ExampleDerive() {
	d, err := itrs.Derive(itrs.Nodes()[0])
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("1999: implied s_d %.0f, required s_d %.0f, ratio %.2f\n",
		d.ImpliedSd, d.RequiredSd, d.Ratio)
	// Output:
	// 1999: implied s_d 250, required s_d 500, ratio 0.50
}

// The DRAM counterpoint: a regular 8F² fabric holds its density across
// every generation.
func ExampleDRAMNode_ImpliedSd() {
	for _, n := range itrs.DRAMNodes()[:2] {
		sd, err := n.ImpliedSd()
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%d: DRAM implied s_d = %.1f\n", n.Year, sd)
	}
	// Output:
	// 1999: DRAM implied s_d = 11.4
	// 2002: DRAM implied s_d = 11.4
}
