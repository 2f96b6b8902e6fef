package layout

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// DefectThrower is the geometric defect Monte Carlo, one chunk of trials
// at a time: spot defects with random positions and sizes are thrown at
// the layout, and a die is killed when a defect bridges two shapes
// (short) or severs a wire (open) on the monitored layer. Working on the
// actual geometry, its measured yield validates the analytic
// critical-area model end to end. The geometry is flattened and binned
// once and exp(-mean) hoisted once, ready for any number of independent
// trial chunks; the sharded job engine (internal/mcjob) drives it.
type DefectThrower struct {
	flat    []float64
	grid    rectGrid
	w, h    float64
	mean    float64
	expMean float64
	sampler func(*stats.RNG) float64
}

// NewDefectThrower validates the inputs and prepares the kernel. The
// sampler must be pure: Throw is called concurrently from many chunks.
func NewDefectThrower(l *Layout, layer Layer, meanDefects float64, sampler func(*stats.RNG) float64) (*DefectThrower, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if meanDefects < 0 {
		return nil, fmt.Errorf("layout: defect rate must be non-negative, got %v", meanDefects)
	}
	if sampler == nil {
		return nil, fmt.Errorf("layout: defect size sampler required")
	}
	// Flatten the rect coordinates to float64 once: IsFatal converts four
	// int fields per rect per defect; the flat buffer pays the conversion
	// once per run. int→float64 conversion is exact on layout coordinates,
	// so the flat test is bit-identical to IsFatal. The grid then lets each
	// defect test only the rects near it.
	flat := flattenRects(l.LayerRects(layer))
	return &DefectThrower{
		flat: flat,
		grid: newRectGrid(flat, l.Width, l.Height),
		w:    float64(l.Width), h: float64(l.Height),
		mean: meanDefects,
		// The Poisson rate is constant across every trial: hoist exp(-mean)
		// out of the trial loop (PoissonL keeps the draw sequence identical).
		expMean: math.Exp(-meanDefects),
		sampler: sampler,
	}, nil
}

// Throw evaluates trials die drawn from r: per die a Poisson number of
// defects land uniformly on the bounding box with sampled diameters, and
// the die is killed if any defect is fatal per IsFatal. The result
// depends only on the thrower and the draws taken from r.
func (dt *DefectThrower) Throw(r *stats.RNG, trials int) (killed, defects int) {
	for t := 0; t < trials; t++ {
		n := r.PoissonL(dt.mean, dt.expMean)
		defects += n
		dead := false
		for d := 0; d < n && !dead; d++ {
			x := r.Range(0, dt.w)
			y := r.Range(0, dt.h)
			size := dt.sampler(r)
			if dt.isFatal(x, y, size) {
				dead = true
			}
		}
		if dead {
			killed++
		}
	}
	return killed, defects
}

// flattenRects converts rect corners to a flat float64 buffer, four
// values per rect in (x0, y0, x1, y1) order, for the simulation hot loop.
func flattenRects(rects []Rect) []float64 {
	flat := make([]float64, 4*len(rects))
	for i, r := range rects {
		flat[4*i] = float64(r.X0)
		flat[4*i+1] = float64(r.Y0)
		flat[4*i+2] = float64(r.X1)
		flat[4*i+3] = float64(r.Y1)
	}
	return flat
}

// isFatal is IsFatal over the flat buffer, restricted to the rects in the
// grid bins the defect's square meets. The verdict does not depend on
// the order rects are visited in: a defect is fatal iff it overlaps two
// distinct rects or opens one it overlaps. Every rect it overlaps shares
// a visited bin (see rectGrid.cell), and a rect met in several bins keeps
// its flat offset as its identity, so a second visit is never a short.
// The comparisons are IsFatal's on the same float values, so the
// equivalence test holds the two to the same verdict on every defect.
func (dt *DefectThrower) isFatal(x, y, size float64) bool {
	half := size / 2
	dx0, dy0, dx1, dy1 := x-half, y-half, x+half, y+half
	g := &dt.grid
	// min and max order the span for a negative size, whose inverted
	// square IsFatal tests all the same.
	cx0, cx1 := g.cell(min(dx0, dx1), g.nx), g.cell(max(dx0, dx1), g.nx)
	cy0, cy1 := g.cell(min(dy0, dy1), g.ny), g.cell(max(dy0, dy1), g.ny)
	flat := dt.flat
	touched := -1
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.nx
		for _, off := range g.offs[g.start[row+cx0]:g.start[row+cx1+1]] {
			j := int(off)
			r := flat[j : j+4 : j+4]
			rx0, ry0, rx1, ry1 := r[0], r[1], r[2], r[3]
			if dx0 < rx1 && rx0 < dx1 && dy0 < ry1 && ry0 < dy1 {
				// Overlaps this shape. Short: second distinct shape touched.
				if touched >= 0 && touched != j {
					return true
				}
				touched = j
				// Open: the defect spans the wire's short dimension. Orient by
				// the wire's long side.
				w, h := rx1-rx0, ry1-ry0
				if w <= h {
					// Vertical wire: defect must cover [rx0, rx1] in x and sit
					// strictly inside the wire's run so it truly severs it.
					if dx0 <= rx0 && dx1 >= rx1 && dy0 > ry0 && dy1 < ry1 {
						return true
					}
				} else {
					if dy0 <= ry0 && dy1 >= ry1 && dx0 > rx0 && dx1 < rx1 {
						return true
					}
				}
			}
		}
	}
	return false
}

// rectGrid bins a layer's rects on a uniform grid over the layout's
// bounding box [0, W]×[0, H], so the fatal test compares a defect only
// with the rects in the bins its square meets. Bin b = row·nx + col
// lists the flat offsets of the rects that meet it in
// offs[start[b]:start[b+1]]; a row's bins are adjacent, so the bins a
// defect meets in one row are one slice.
type rectGrid struct {
	inv    float64 // 1 / bin side
	nx, ny int
	start  []int
	offs   []int32
}

// newRectGrid bins the rects of a flat buffer over a width×height box.
// The bin side is the side of the square that holds one rect on
// average, sqrt(W·H/n), so a small defect meets a few rects whatever the
// layout's size or density.
func newRectGrid(flat []float64, width, height int) rectGrid {
	side := math.Max(float64(width), float64(height))
	if n := len(flat) / 4; n > 0 {
		side = math.Min(side, math.Sqrt(float64(width)*float64(height)/float64(n)))
	}
	g := rectGrid{
		inv: 1 / side,
		nx:  int(math.Ceil(float64(width) / side)),
		ny:  int(math.Ceil(float64(height) / side)),
	}
	// Count each bin's rects into start[b] and take inclusive prefix
	// sums, so start[b] ends bin b. Filling backwards then steps each
	// start[b] down to the bin's first entry and leaves the entries in
	// ascending offset order.
	g.start = make([]int, g.nx*g.ny+1)
	for j := 0; j < len(flat); j += 4 {
		g.eachBin(flat[j:j+4], func(b int) { g.start[b]++ })
	}
	for b := 1; b < len(g.start); b++ {
		g.start[b] += g.start[b-1]
	}
	g.offs = make([]int32, g.start[len(g.start)-1])
	for j := len(flat) - 4; j >= 0; j -= 4 {
		g.eachBin(flat[j:j+4], func(b int) {
			g.start[b]--
			g.offs[g.start[b]] = int32(j)
		})
	}
	return g
}

// eachBin calls fn with every bin that the rect (x0, y0, x1, y1) meets.
func (g *rectGrid) eachBin(r []float64, fn func(b int)) {
	cx0, cx1 := g.cell(r[0], g.nx), g.cell(r[2], g.nx)
	cy0, cy1 := g.cell(r[1], g.ny), g.cell(r[3], g.ny)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			fn(cy*g.nx + cx)
		}
	}
}

// cell maps coordinate v to its bin on an axis of n bins. The map is
// monotone (a correctly rounded product, then a clamp), so when a defect
// and a rect overlap on an axis, the defect's low edge maps no higher
// than the rect's high edge and its high edge no lower than the rect's
// low edge: their bin ranges meet. The clamp is made in float before the
// int conversion, because v may be ±Inf (the size sampler can return
// +Inf) or NaN. NaN lands in bin 0, where any bin is right: a NaN edge
// overlaps nothing.
func (g *rectGrid) cell(v float64, n int) int {
	f := v * g.inv
	if !(f > 0) {
		return 0
	}
	if f >= float64(n-1) {
		return n - 1
	}
	return int(f)
}

// IsFatal reports whether a square defect of the given size centered at
// (x, y) kills the die: it shorts two distinct shapes (touches both) or
// opens a wire (spans its full width). The square-defect approximation
// matches the parallel-edge critical-area formulas in critarea.go, so the
// Monte Carlo and the analytic model measure the same physics.
func IsFatal(rects []Rect, x, y, size float64) bool {
	half := size / 2
	dx0, dy0, dx1, dy1 := x-half, y-half, x+half, y+half
	touched := -1
	for i, r := range rects {
		rx0, ry0, rx1, ry1 := float64(r.X0), float64(r.Y0), float64(r.X1), float64(r.Y1)
		if dx0 < rx1 && rx0 < dx1 && dy0 < ry1 && ry0 < dy1 {
			// Overlaps this shape. Short: second distinct shape touched.
			if touched >= 0 && touched != i {
				return true
			}
			touched = i
			// Open: the defect spans the wire's short dimension. Orient by
			// the wire's long side.
			w, h := rx1-rx0, ry1-ry0
			if w <= h {
				// Vertical wire: defect must cover [rx0, rx1] in x and sit
				// strictly inside the wire's run so it truly severs it.
				if dx0 <= rx0 && dx1 >= rx1 && dy0 > ry0 && dy1 < ry1 {
					return true
				}
			} else {
				if dy0 <= ry0 && dy1 >= ry1 && dx0 > rx0 && dx1 < rx1 {
					return true
				}
			}
		}
	}
	return false
}
