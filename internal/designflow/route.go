package designflow

import (
	"fmt"
	"math"
)

// CongestionMap is the result of a probabilistic global-routing estimate:
// per-edge track demand on the placement grid, from spreading each net's
// bounding box uniformly (the classic pre-route congestion model).
type CongestionMap struct {
	Cols, Rows int
	// H[y][x] is the demand crossing the vertical cut between columns x
	// and x+1 in row y; V[y][x] the demand crossing the horizontal cut
	// between rows y and y+1 in column x.
	H, V [][]float64
}

// EstimateCongestion spreads every net's wiring uniformly over its
// bounding box: a net spanning w×h cells contributes h/(h+1) demand...
// concretely, each horizontal cut inside the box receives 1/(h+1) of the
// net's horizontal crossings per row, matching the uniform-distribution
// convention of probabilistic routers.
func EstimateCongestion(n *Netlist, p *Placement) (*CongestionMap, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(n.Gates); err != nil {
		return nil, err
	}
	cm := &CongestionMap{Cols: p.Cols, Rows: p.Rows}
	cm.H = make([][]float64, p.Rows)
	cm.V = make([][]float64, p.Rows)
	for y := 0; y < p.Rows; y++ {
		cm.H[y] = make([]float64, p.Cols)
		cm.V[y] = make([]float64, p.Cols)
	}
	for _, net := range n.Nets {
		minX, maxX := p.X[net.Pins[0]], p.X[net.Pins[0]]
		minY, maxY := p.Y[net.Pins[0]], p.Y[net.Pins[0]]
		for _, g := range net.Pins[1:] {
			minX = min(minX, p.X[g])
			maxX = max(maxX, p.X[g])
			minY = min(minY, p.Y[g])
			maxY = max(maxY, p.Y[g])
		}
		w := maxX - minX // horizontal crossings needed per route
		h := maxY - minY
		if w > 0 {
			// One horizontal crossing of each vertical cut in [minX,maxX),
			// spread uniformly over the h+1 rows of the box.
			perRow := 1.0 / float64(h+1)
			for y := minY; y <= maxY; y++ {
				for x := minX; x < maxX; x++ {
					cm.H[y][x] += perRow
				}
			}
		}
		if h > 0 {
			perCol := 1.0 / float64(w+1)
			for x := minX; x <= maxX; x++ {
				for y := minY; y < maxY; y++ {
					cm.V[y][x] += perCol
				}
			}
		}
	}
	return cm, nil
}

// Peak returns the maximum horizontal and vertical edge demand.
func (cm *CongestionMap) Peak() (h, v float64) {
	for y := 0; y < cm.Rows; y++ {
		for x := 0; x < cm.Cols; x++ {
			h = math.Max(h, cm.H[y][x])
			v = math.Max(v, cm.V[y][x])
		}
	}
	return h, v
}

// RoutabilityReport connects congestion to the paper's s_d: if the cell
// fabric offers TracksPerCell routing tracks across each cell, a design
// whose peak demand exceeds that supply must decompress — insert routing
// area — by the returned factor, directly inflating s_d.
type RoutabilityReport struct {
	PeakDemand    float64 // max of horizontal/vertical peaks
	TracksPerCell float64
	AreaInflation float64 // ≥ 1: multiply cell area by this to route
	SdWithRouting float64 // intrinsic s_d × inflation
	IntrinsicSd   float64
}

// Routability sizes the routing-driven decompression: given the netlist,
// its placement, the fabric's tracks per cell and the intrinsic cell
// s_d (λ² per transistor at 100% cell utilization), it reports the area
// inflation needed to satisfy peak demand. This quantifies §2.2.2's
// "growing need for more interconnect" component of the s_d trend —
// and its limit: the paper argues interconnect alone cannot explain the
// observed two-fold-plus increases.
func Routability(n *Netlist, p *Placement, tracksPerCell, intrinsicSd float64) (RoutabilityReport, error) {
	if tracksPerCell <= 0 {
		return RoutabilityReport{}, fmt.Errorf("designflow: tracks per cell must be positive, got %v", tracksPerCell)
	}
	if intrinsicSd <= 0 {
		return RoutabilityReport{}, fmt.Errorf("designflow: intrinsic s_d must be positive, got %v", intrinsicSd)
	}
	cm, err := EstimateCongestion(n, p)
	if err != nil {
		return RoutabilityReport{}, err
	}
	ph, pv := cm.Peak()
	peak := math.Max(ph, pv)
	rep := RoutabilityReport{
		PeakDemand:    peak,
		TracksPerCell: tracksPerCell,
		IntrinsicSd:   intrinsicSd,
		AreaInflation: 1,
	}
	if peak > tracksPerCell {
		// Routing area scales linearly with the track deficit: spreading
		// the fabric by f gives f·tracksPerCell supply.
		rep.AreaInflation = peak / tracksPerCell
	}
	rep.SdWithRouting = intrinsicSd * rep.AreaInflation
	return rep, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
