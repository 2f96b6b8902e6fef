package wafer

import (
	"fmt"
	"math"
)

// MPWConfig describes a multi-project wafer run: several projects share
// one mask set and one wafer lot, the standard escape hatch from the
// eq (5) NRE squeeze for prototypes and very low volume.
type MPWConfig struct {
	Projects    int     // designs sharing the reticle
	MaskSetCost float64 // full mask-set price C_MA
	WaferCost   float64 // per processed wafer
	Wafers      int     // wafers in the shared lot
	DiePerWafer int     // die sites per wafer *per project*
	Yield       float64
}

// Validate reports the first invalid field of c, or nil.
func (c MPWConfig) Validate() error {
	switch {
	case c.Projects <= 0:
		return fmt.Errorf("wafer: MPW needs at least one project, got %d", c.Projects)
	case c.MaskSetCost < 0:
		return fmt.Errorf("wafer: mask cost must be non-negative, got %v", c.MaskSetCost)
	case c.WaferCost <= 0:
		return fmt.Errorf("wafer: wafer cost must be positive, got %v", c.WaferCost)
	case c.Wafers <= 0:
		return fmt.Errorf("wafer: wafer count must be positive, got %d", c.Wafers)
	case c.DiePerWafer <= 0:
		return fmt.Errorf("wafer: die per wafer must be positive, got %d", c.DiePerWafer)
	case !(c.Yield > 0 && c.Yield <= 1):
		return fmt.Errorf("wafer: yield must be in (0,1], got %v", c.Yield)
	}
	return nil
}

// CostPerProjectDie returns the all-in cost of one good die for one MPW
// participant: its 1/Projects share of the mask set and of the lot's
// wafer cost, divided by its good die.
func (c MPWConfig) CostPerProjectDie() (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	share := (c.MaskSetCost + c.WaferCost*float64(c.Wafers)) / float64(c.Projects)
	goodDie := float64(c.Wafers) * float64(c.DiePerWafer) * c.Yield
	return share / goodDie, nil
}

// DedicatedCostPerDie returns the cost of one good die if the project ran
// its own dedicated mask set instead, sized to deliver the same number of
// good die its MPW slot yields. The dedicated run packs
// dedicatedDiePerWafer sites per wafer (a full reticle of the one design)
// but must buy the entire mask set alone — the eq (5) squeeze MPW exists
// to escape.
func (c MPWConfig) DedicatedCostPerDie(dedicatedDiePerWafer int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if dedicatedDiePerWafer <= 0 {
		return 0, fmt.Errorf("wafer: dedicated die per wafer must be positive, got %d", dedicatedDiePerWafer)
	}
	goodNeeded := float64(c.Wafers) * float64(c.DiePerWafer) * c.Yield
	wafersNeeded := math.Ceil(goodNeeded / (float64(dedicatedDiePerWafer) * c.Yield))
	if wafersNeeded < 1 {
		wafersNeeded = 1
	}
	total := c.MaskSetCost + c.WaferCost*wafersNeeded
	return total / goodNeeded, nil
}

// MPWBreakEvenWafers returns the lot size at which a dedicated run
// (full reticle, dedicatedDiePerWafer sites) becomes cheaper per good die
// than the shared MPW run. Below it, prototypes should share masks.
func (c MPWConfig) MPWBreakEvenWafers(dedicatedDiePerWafer int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if dedicatedDiePerWafer <= c.DiePerWafer {
		return 0, fmt.Errorf("wafer: dedicated run must fit more die per wafer than the MPW slot (%d vs %d)",
			dedicatedDiePerWafer, c.DiePerWafer)
	}
	// Cost equality in wafer count w:
	//   (M + C·w)/(P·w·d_mpw) = (M + C·w)/(w·d_ded) has no solution in w —
	// per-die costs share the (M + C·w) numerator only for the MPW's own
	// wafers. The dedicated run buys its own wafers, so equate
	//   (M/P + C·w_shared_share... )
	// Simpler and correct framing: the project needs G good die. MPW cost
	// for G die vs dedicated cost for G die; break-even in G:
	//   MPW:       (M/P)·0 + per-die_mpw·G   with per-die_mpw from a lot
	//   dedicated: M + C·(G/(d_ded·Y))
	// Equate dedicated with MPW per-die pricing:
	perDieMPW, err := c.CostPerProjectDie()
	if err != nil {
		return 0, err
	}
	perWaferGood := float64(dedicatedDiePerWafer) * c.Yield
	// M + C·w = perDieMPW · (w · perWaferGood) → w = M/(perDieMPW·perWaferGood − C)
	denom := perDieMPW*perWaferGood - c.WaferCost
	if denom <= 0 {
		return 0, fmt.Errorf("wafer: dedicated run never breaks even (MPW per-die %v too cheap)", perDieMPW)
	}
	return c.MaskSetCost / denom, nil
}
