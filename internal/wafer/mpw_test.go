package wafer

import (
	"math"
	"testing"
)

func mpwConfig() MPWConfig {
	return MPWConfig{
		Projects:    10,
		MaskSetCost: 1e6,
		WaferCost:   2000,
		Wafers:      20,
		DiePerWafer: 25, // per-project sites on the shared reticle
		Yield:       0.8,
	}
}

func TestMPWCostPerProjectDie(t *testing.T) {
	c := mpwConfig()
	got, err := c.CostPerProjectDie()
	if err != nil {
		t.Fatal(err)
	}
	// Share: (1e6 + 2000·20)/10 = 104000; good die: 20·25·0.8 = 400.
	want := 104000.0 / 400
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MPW die cost = %v, want %v", got, want)
	}
}

func TestMPWSharingHelpsPrototypes(t *testing.T) {
	c := mpwConfig()
	mpw, err := c.CostPerProjectDie()
	if err != nil {
		t.Fatal(err)
	}
	// Dedicated run of the same tiny lot: full mask set, 10x the sites.
	ded, err := c.DedicatedCostPerDie(250)
	if err != nil {
		t.Fatal(err)
	}
	if mpw >= ded {
		t.Fatalf("MPW %v not cheaper than dedicated %v at prototype volume", mpw, ded)
	}
}

func TestMPWBreakEven(t *testing.T) {
	c := mpwConfig()
	be, err := c.MPWBreakEvenWafers(250)
	if err != nil {
		t.Fatal(err)
	}
	if be <= 0 {
		t.Fatalf("break-even = %v wafers", be)
	}
	// More aggressive sharing makes the MPW cheaper per die, pushing the
	// dedicated break-even to larger volumes.
	shared := c
	shared.Projects = 20
	be20, err := shared.MPWBreakEvenWafers(250)
	if err != nil {
		t.Fatal(err)
	}
	if be20 <= be {
		t.Fatalf("20-way break-even %v not above 10-way %v", be20, be)
	}
	// At the break-even volume the dedicated run matches the MPW per-die
	// price.
	perDieMPW, err := c.CostPerProjectDie()
	if err != nil {
		t.Fatal(err)
	}
	dedicatedAtBE := (c.MaskSetCost + c.WaferCost*be) / (be * 250 * c.Yield)
	if math.Abs(dedicatedAtBE-perDieMPW)/perDieMPW > 1e-9 {
		t.Fatalf("at break-even: dedicated %v vs MPW %v", dedicatedAtBE, perDieMPW)
	}
}

func TestMPWBreakEvenUnreachable(t *testing.T) {
	c := mpwConfig()
	c.Projects = 1000 // absurdly cheap sharing
	if _, err := c.MPWBreakEvenWafers(26); err == nil {
		t.Fatal("accepted never-break-even configuration")
	}
}

func TestMPWValidation(t *testing.T) {
	bad := []MPWConfig{
		{Projects: 0, WaferCost: 1, Wafers: 1, DiePerWafer: 1, Yield: 0.5},
		{Projects: 1, MaskSetCost: -1, WaferCost: 1, Wafers: 1, DiePerWafer: 1, Yield: 0.5},
		{Projects: 1, WaferCost: 0, Wafers: 1, DiePerWafer: 1, Yield: 0.5},
		{Projects: 1, WaferCost: 1, Wafers: 0, DiePerWafer: 1, Yield: 0.5},
		{Projects: 1, WaferCost: 1, Wafers: 1, DiePerWafer: 0, Yield: 0.5},
		{Projects: 1, WaferCost: 1, Wafers: 1, DiePerWafer: 1, Yield: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	c := mpwConfig()
	if _, err := c.DedicatedCostPerDie(0); err == nil {
		t.Fatal("accepted zero dedicated sites")
	}
	if _, err := c.MPWBreakEvenWafers(25); err == nil {
		t.Fatal("accepted dedicated run no denser than MPW slot")
	}
}
