package devices_test

import (
	"fmt"

	"repro/internal/devices"
)

// Look up a Table A1 row and its derived quantities.
func ExampleByID() {
	k7, err := devices.ByID(17)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s: logic s_d = %.1f on %.2f µm\n", k7.Name, k7.SdLogic, k7.LambdaUM)
	// Output:
	// K7 (Athlon): logic s_d = 335.6 on 0.25 µm
}

// The §2.2.2 market comparison: same node, different density strategy.
func ExampleSameNodeComparison() {
	ratio, err := devices.SameNodeComparison(14, 9) // K6 vs Pentium II, 0.25 µm
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Pentium II transistors cost %.2fx the K6's\n", ratio)
	// Output:
	// Pentium II transistors cost 2.25x the K6's
}
