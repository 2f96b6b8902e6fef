package layout

import (
	"fmt"
	"slices"
	"sync"
)

// critBox is one rectangle projected onto a gap axis: lo/hi span the axis
// a defect bridges across, tLo/tHi the transverse extent that determines
// the facing overlap.
type critBox struct{ lo, hi, tLo, tHi float64 }

// cmpCritBox is a total order on boxes, so sorted order — and therefore
// the floating-point summation order of the critical-area kernels — is
// canonical regardless of the sort algorithm.
func cmpCritBox(a, b critBox) int {
	switch {
	case a.lo != b.lo:
		if a.lo < b.lo {
			return -1
		}
		return 1
	case a.hi != b.hi:
		if a.hi < b.hi {
			return -1
		}
		return 1
	case a.tLo != b.tLo:
		if a.tLo < b.tLo {
			return -1
		}
		return 1
	case a.tHi != b.tHi:
		if a.tHi < b.tHi {
			return -1
		}
		return 1
	}
	return 0
}

// openWire is a rectangle reduced to the open-circuit geometry: its short
// dimension (width) and long dimension (length).
type openWire struct{ width, length float64 }

// CritEvaluator holds the sorted per-axis geometry of one layer so the
// critical area can be evaluated at many defect sizes without re-deriving
// or re-sorting anything: Reset is O(n log n) once, ShortArea/OpenArea
// allocate nothing. This is the kernel behind critical-area curves and
// the size-averaged yield integrals, which sample hundreds of defect
// sizes against the same geometry.
type CritEvaluator struct {
	h, v    []critBox // sorted by cmpCritBox; h gaps along x, v along y
	wires   []openWire
	dieArea int // bounding-box area, λ²
}

// NewCritEvaluator builds an evaluator for one layer of l.
func NewCritEvaluator(l *Layout, layer Layer) (*CritEvaluator, error) {
	e := &CritEvaluator{}
	if err := e.Reset(l, layer); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-targets the evaluator at a (layout, layer) pair, reusing its
// internal buffers: resetting to same-sized geometry allocates nothing.
func (e *CritEvaluator) Reset(l *Layout, layer Layer) error {
	if err := l.Validate(); err != nil {
		return err
	}
	e.h, e.v, e.wires = e.h[:0], e.v[:0], e.wires[:0]
	e.dieArea = l.AreaLambda2()
	for _, r := range l.Rects {
		if r.Layer != layer {
			continue
		}
		e.h = append(e.h, critBox{float64(r.X0), float64(r.X1), float64(r.Y0), float64(r.Y1)})
		e.v = append(e.v, critBox{float64(r.Y0), float64(r.Y1), float64(r.X0), float64(r.X1)})
		w, h := float64(r.W()), float64(r.H())
		width, length := w, h
		if h < w {
			width, length = h, w
		}
		e.wires = append(e.wires, openWire{width: width, length: length})
	}
	slices.SortFunc(e.h, cmpCritBox)
	slices.SortFunc(e.v, cmpCritBox)
	return nil
}

// ShortArea returns the short-circuit critical area at defect diameter x
// using the parallel-edge approximation over both facing axes. It
// allocates nothing.
func (e *CritEvaluator) ShortArea(x float64) float64 {
	if len(e.h) < 2 {
		return 0
	}
	return facingSum(e.h, x) + facingSum(e.v, x)
}

// facingSum sums critical strip areas for pairs facing along one axis:
// for facing edges at spacing s < x the strip has length equal to the
// facing overlap and width (x − s).
func facingSum(bs []critBox, x float64) float64 {
	var total float64
	for i := range bs {
		for j := i + 1; j < len(bs); j++ {
			gap := bs[j].lo - bs[i].hi
			if gap >= x {
				// bs is sorted by lo and bs[i].hi is fixed, so the gap only
				// grows with j: no later rect can face this one.
				break
			}
			if gap < 0 {
				continue // overlapping or abutting along the axis: not a facing pair
			}
			overlap := minF(bs[i].tHi, bs[j].tHi) - maxF(bs[i].tLo, bs[j].tLo)
			if overlap <= 0 {
				continue
			}
			total += overlap * (x - gap)
		}
	}
	return total
}

// OpenArea returns the open-circuit critical area at defect diameter x: a
// missing-material defect wider than a wire severs it, with a strip the
// length of the wire and width (x − w). It allocates nothing.
func (e *CritEvaluator) OpenArea(x float64) float64 {
	var total float64
	for _, w := range e.wires {
		if x > w.width {
			total += w.length * (x - w.width)
		}
	}
	return total
}

// Area returns the combined (shorts + opens) critical area at defect
// diameter x.
func (e *CritEvaluator) Area(x float64) float64 {
	return e.ShortArea(x) + e.OpenArea(x)
}

// critEvalPool recycles evaluators across the convenience wrappers below,
// so one-shot calls reuse box and wire buffers instead of reallocating
// them per invocation.
var critEvalPool = sync.Pool{New: func() any { return new(CritEvaluator) }}

// CriticalArea computes the short-circuit critical area of one layer for a
// circular defect of diameter x (in λ): the area of defect-center
// positions that bridge two distinct rectangles. It uses the standard
// parallel-edge approximation; diagonal adjacency is a second-order
// contribution the approximation ignores, as does the literature it
// follows. Callers evaluating many defect sizes should build a
// CritEvaluator once instead.
func CriticalArea(l *Layout, layer Layer, defectSize float64) (float64, error) {
	if defectSize < 0 {
		return 0, fmt.Errorf("layout: defect size must be non-negative, got %v", defectSize)
	}
	e := critEvalPool.Get().(*CritEvaluator)
	defer critEvalPool.Put(e)
	if err := e.Reset(l, layer); err != nil {
		return 0, err
	}
	return e.ShortArea(defectSize), nil
}

// OpenCriticalArea computes the open-circuit critical area of a layer for
// a defect of diameter x: for each wire (rectangle), a missing-material
// defect wider than the wire severs it; the critical strip runs the length
// of the wire with width (x − w) when x exceeds the wire width w.
func OpenCriticalArea(l *Layout, layer Layer, defectSize float64) (float64, error) {
	if defectSize < 0 {
		return 0, fmt.Errorf("layout: defect size must be non-negative, got %v", defectSize)
	}
	if err := l.Validate(); err != nil {
		return 0, err
	}
	var total float64
	for _, r := range l.Rects {
		if r.Layer != layer {
			continue
		}
		w, h := float64(r.W()), float64(r.H())
		// Orient along the long side: width is the short dimension.
		width, length := w, h
		if h < w {
			width, length = h, w
		}
		if defectSize > width {
			total += length * (defectSize - width)
		}
	}
	return total, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
