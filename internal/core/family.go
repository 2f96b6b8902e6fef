package core

import "fmt"

// Family models §3.2's product-family amortization: "highly regular,
// repetitive (across many products) and experimentally precharacterized
// design building blocks … this way one will be able to increase an
// effective volume used in the computation of C_DE". A family of Products
// chips shares a precharacterized block library; the SharedFraction of
// each design's effort is the block library itself, paid once and reused
// with ReuseEfficiency; the remainder is product-unique and paid every
// time.
type Family struct {
	Products        int     // family size K, >= 1
	SharedFraction  float64 // fraction of design effort in reusable blocks, [0, 1]
	ReuseEfficiency float64 // fraction of shared effort actually saved on reuse, [0, 1]
}

// Validate reports the first invalid field of f, or nil.
func (f Family) Validate() error {
	switch {
	case f.Products < 1:
		return fmt.Errorf("core: family must have at least one product, got %d", f.Products)
	case f.SharedFraction < 0 || f.SharedFraction > 1:
		return fmt.Errorf("core: shared fraction must be in [0,1], got %v", f.SharedFraction)
	case f.ReuseEfficiency < 0 || f.ReuseEfficiency > 1:
		return fmt.Errorf("core: reuse efficiency must be in [0,1], got %v", f.ReuseEfficiency)
	}
	return nil
}

// DesignCostPerProduct returns the average design cost each family member
// carries when the standalone (eq 6) cost would be standalone dollars:
// the first product pays in full; each subsequent product pays the unique
// part plus the unreused residue of the shared part,
//
//	perProduct = standalone · [1 + (K−1)·(1 − s·e)] / K
//
// with s = SharedFraction and e = ReuseEfficiency. K = 1 or s·e = 0
// recovers the standalone cost exactly.
func (f Family) DesignCostPerProduct(standalone float64) (float64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	if standalone < 0 {
		return 0, fmt.Errorf("core: standalone design cost must be non-negative, got %v", standalone)
	}
	k := float64(f.Products)
	saved := f.SharedFraction * f.ReuseEfficiency
	return standalone * (1 + (k-1)*(1-saved)) / k, nil
}

// EffectiveVolumeMultiplier expresses the same amortization in the
// paper's own terms — the factor by which the family inflates the
// effective N_w dividing the design cost in eq (5):
//
//	multiplier = K / [1 + (K−1)·(1 − s·e)]
//
// It ranges from 1 (no reuse) to K (perfect sharing of everything).
func (f Family) EffectiveVolumeMultiplier() (float64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	k := float64(f.Products)
	saved := f.SharedFraction * f.ReuseEfficiency
	return k / (1 + (k-1)*(1-saved)), nil
}

// FamilyTransistorCost evaluates eq (4) for one member of a family: the
// scenario's eq (6) design cost is replaced by the family-amortized
// per-product figure. Mask sets are per-product and not shared.
func FamilyTransistorCost(s Scenario, f Family) (Breakdown, error) {
	if err := s.Validate(); err != nil {
		return Breakdown{}, err
	}
	standalone, err := s.DesignCost.Cost(s.Design.Transistors, s.Design.Sd)
	if err != nil {
		return Breakdown{}, err
	}
	perProduct, err := f.DesignCostPerProduct(standalone)
	if err != nil {
		return Breakdown{}, err
	}
	gen := Generalized{
		Scenario: s,
		CdSqFn: func(aw, lam, nw, ntr, sd0 float64) float64 {
			return (s.MaskCost + perProduct) / (nw * aw)
		},
	}
	b, err := gen.TransistorCost()
	if err != nil {
		return Breakdown{}, err
	}
	b.DesignDE = perProduct
	return b, nil
}
