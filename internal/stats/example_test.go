package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// One-dimensional minimization of the kind the cost optimizers use.
func ExampleMinimize() {
	f := func(x float64) float64 { return (x - 3) * (x - 3) }
	res, err := stats.Minimize(f, -10, 10, 1e-9)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("argmin ≈ %.4f\n", res.X)
	// Output:
	// argmin ≈ 3.0000
}

// The deterministic RNG behind every Monte Carlo in the repository.
func ExampleRNG() {
	a := stats.NewRNG(42)
	b := stats.NewRNG(42)
	fmt.Println(a.Intn(1000) == b.Intn(1000))
	// Output:
	// true
}
