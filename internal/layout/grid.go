// Package layout provides a simplified mask-layout substrate: rectangles
// on named layers over a λ-unit grid, a small standard-cell library, and
// generators for the three design styles the paper contrasts (dense SRAM
// arrays, tiled datapaths, and sparsely-placed random logic). From a
// generated layout the package measures the design decompression index s_d
// directly — the quantity Table A1 extracts from die photographs — and
// extracts critical-area curves for the yield models.
//
// Coordinates are integers in units of λ (the minimum feature size), so a
// layout is process-independent exactly the way s_d is; multiplying by a
// concrete λ instantiates physical dimensions.
package layout

import "fmt"

// Layer identifies a mask layer.
type Layer uint8

// The layers the cell library uses.
const (
	Diffusion Layer = iota
	Poly
	Metal1
	Metal2
	numLayers
)

// String returns the layer name.
func (l Layer) String() string {
	switch l {
	case Diffusion:
		return "diffusion"
	case Poly:
		return "poly"
	case Metal1:
		return "metal1"
	case Metal2:
		return "metal2"
	default:
		return fmt.Sprintf("layer(%d)", uint8(l))
	}
}

// Rect is an axis-aligned rectangle on a layer, in λ units. X1/Y1 are
// exclusive: the rectangle covers [X0, X1) × [Y0, Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
	Layer          Layer
}

// Valid reports whether the rectangle has positive extent.
func (r Rect) Valid() bool { return r.X1 > r.X0 && r.Y1 > r.Y0 }

// W returns the width in λ.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the height in λ.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Translate returns the rectangle shifted by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{X0: r.X0 + dx, Y0: r.Y0 + dy, X1: r.X1 + dx, Y1: r.Y1 + dy, Layer: r.Layer}
}

// Layout is a collection of rectangles over a bounding box, annotated with
// the number of transistors it implements.
type Layout struct {
	Name        string
	Width       int // bounding box, λ
	Height      int // bounding box, λ
	Transistors int
	Rects       []Rect
}

// Validate reports the first structural problem with l, or nil.
func (l *Layout) Validate() error {
	if l.Width <= 0 || l.Height <= 0 {
		return fmt.Errorf("layout %q: bounding box must be positive, got %d×%d", l.Name, l.Width, l.Height)
	}
	if l.Transistors < 0 {
		return fmt.Errorf("layout %q: negative transistor count", l.Name)
	}
	for i, r := range l.Rects {
		if !r.Valid() {
			return fmt.Errorf("layout %q: rect %d has non-positive extent", l.Name, i)
		}
		if r.Layer >= numLayers {
			return fmt.Errorf("layout %q: rect %d on unknown layer %d", l.Name, i, r.Layer)
		}
		if r.X0 < 0 || r.Y0 < 0 || r.X1 > l.Width || r.Y1 > l.Height {
			return fmt.Errorf("layout %q: rect %d escapes the bounding box", l.Name, i)
		}
	}
	return nil
}

// AreaLambda2 returns the bounding-box area in λ².
func (l *Layout) AreaLambda2() int { return l.Width * l.Height }

// Sd returns the measured design decompression index: bounding-box λ²
// squares per transistor. It returns an error for an empty design.
func (l *Layout) Sd() (float64, error) {
	if l.Transistors <= 0 {
		return 0, fmt.Errorf("layout %q: s_d undefined without transistors", l.Name)
	}
	return float64(l.AreaLambda2()) / float64(l.Transistors), nil
}

// LayerRects returns the rectangles on one layer, in insertion order.
func (l *Layout) LayerRects(layer Layer) []Rect {
	var out []Rect
	for _, r := range l.Rects {
		if r.Layer == layer {
			out = append(out, r)
		}
	}
	return out
}

// ContentHash returns a cheap 64-bit FNV-1a-style digest of the layout
// geometry: dimensions, transistor count, and every rectangle in order.
// The Name is excluded, so two layouts with identical geometry hash
// identically. It is the memoization key for derived quantities
// (critical-area curves, averaged critical fractions); it is not
// cryptographic, but a collision needs two distinct geometries to meet in
// 64 bits, negligible at cache scale.
func (l *Layout) ContentHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h = (h ^ v) * prime64
	}
	mix(uint64(int64(l.Width)))
	mix(uint64(int64(l.Height)))
	mix(uint64(int64(l.Transistors)))
	for _, r := range l.Rects {
		mix(uint64(int64(r.X0)))
		mix(uint64(int64(r.Y0)))
		mix(uint64(int64(r.X1)))
		mix(uint64(int64(r.Y1)))
		mix(uint64(r.Layer))
	}
	return h
}
