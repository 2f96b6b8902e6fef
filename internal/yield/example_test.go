package yield_test

import (
	"fmt"

	"repro/internal/yield"
)

// The classical analytic models at one defect budget.
func ExampleModel() {
	lambda := 1.0 // one mean fatal defect per die
	for _, m := range []yield.Model{
		yield.Poisson{}, yield.Murphy{}, yield.Seeds{}, yield.NegBinomial{Alpha: 2},
	} {
		fmt.Printf("%-17s %.4f\n", m.Name(), m.Yield(lambda))
	}
	// Output:
	// poisson           0.3679
	// murphy            0.3996
	// seeds             0.5000
	// negbinomial(α=2)  0.4444
}

// Redundancy repair (ref [32]): spares rescue a dense fabric.
func ExampleRedundancy_Yield() {
	raw := (yield.Poisson{}).Yield(3)
	repaired, err := (yield.Redundancy{Spares: 5}).Yield(3)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("raw %.3f, with 5 spares %.3f\n", raw, repaired)
	// Output:
	// raw 0.050, with 5 spares 0.916
}
