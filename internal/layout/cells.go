package layout

import "fmt"

// Cell is a leaf layout block: a standard cell or a memory bit cell, with
// its geometry in cell-local λ coordinates.
type Cell struct {
	Name        string
	Width       int // λ
	Height      int // λ
	Transistors int
	Rects       []Rect
}

// Validate reports the first structural problem with c, or nil.
func (c Cell) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("layout: cell %q: non-positive dimensions", c.Name)
	}
	if c.Transistors <= 0 {
		return fmt.Errorf("layout: cell %q: no transistors", c.Name)
	}
	for i, r := range c.Rects {
		if !r.Valid() {
			return fmt.Errorf("layout: cell %q: rect %d invalid", c.Name, i)
		}
		if r.X0 < 0 || r.Y0 < 0 || r.X1 > c.Width || r.Y1 > c.Height {
			return fmt.Errorf("layout: cell %q: rect %d escapes the cell", c.Name, i)
		}
	}
	return nil
}

// transistorGeometry returns the diffusion+poly skeleton of n gate
// transistors laid out in a row starting at (x, y): a diffusion strip
// crossed by n poly gates at pitch 4λ.
func transistorGeometry(x, y, n int) []Rect {
	rects := []Rect{{X0: x, Y0: y, X1: x + 4*n + 2, Y1: y + 5, Layer: Diffusion}}
	for i := 0; i < n; i++ {
		gx := x + 2 + 4*i
		rects = append(rects, Rect{X0: gx, Y0: y - 2, X1: gx + 2, Y1: y + 7, Layer: Poly})
	}
	return rects
}

// SRAMCell returns the 6-transistor SRAM bit cell: the densest structure
// in the library, s_d ≈ 30 as the paper quotes for SRAM arrays.
func SRAMCell() Cell {
	c := Cell{Name: "sram6t", Width: 15, Height: 12, Transistors: 6}
	// Cross-coupled pair: two 2-transistor rows plus two access devices.
	c.Rects = append(c.Rects, transistorGeometry(1, 3, 2)...)
	c.Rects = append(c.Rects, Rect{X0: 1, Y0: 9, X1: 11, Y1: 11, Layer: Diffusion})
	c.Rects = append(c.Rects,
		Rect{X0: 3, Y0: 8, X1: 5, Y1: 12, Layer: Poly},     // access gate (word line)
		Rect{X0: 8, Y0: 8, X1: 10, Y1: 12, Layer: Poly},    // access gate
		Rect{X0: 0, Y0: 0, X1: 15, Y1: 2, Layer: Metal1},   // bit line
		Rect{X0: 12, Y0: 0, X1: 14, Y1: 12, Layer: Metal2}, // word line strap
	)
	return c
}

// Inverter returns a 2-transistor inverter cell.
func Inverter() Cell {
	c := Cell{Name: "inv", Width: 12, Height: 20, Transistors: 2}
	c.Rects = append(c.Rects, transistorGeometry(1, 3, 1)...)  // NMOS
	c.Rects = append(c.Rects, transistorGeometry(1, 12, 1)...) // PMOS
	c.Rects = append(c.Rects,
		Rect{X0: 0, Y0: 0, X1: 12, Y1: 2, Layer: Metal1},   // ground rail
		Rect{X0: 0, Y0: 18, X1: 12, Y1: 20, Layer: Metal1}, // power rail
		Rect{X0: 8, Y0: 4, X1: 10, Y1: 16, Layer: Metal1},  // output
	)
	return c
}

// NAND2 returns a 4-transistor two-input NAND cell.
func NAND2() Cell {
	c := Cell{Name: "nand2", Width: 16, Height: 20, Transistors: 4}
	c.Rects = append(c.Rects, transistorGeometry(1, 3, 2)...)
	c.Rects = append(c.Rects, transistorGeometry(1, 12, 2)...)
	c.Rects = append(c.Rects,
		Rect{X0: 0, Y0: 0, X1: 16, Y1: 2, Layer: Metal1},
		Rect{X0: 0, Y0: 18, X1: 16, Y1: 20, Layer: Metal1},
		Rect{X0: 12, Y0: 4, X1: 14, Y1: 16, Layer: Metal1},
	)
	return c
}

// DFF returns a 20-transistor D flip-flop cell.
func DFF() Cell {
	c := Cell{Name: "dff", Width: 46, Height: 20, Transistors: 20}
	c.Rects = append(c.Rects, transistorGeometry(1, 3, 10)...)
	c.Rects = append(c.Rects, transistorGeometry(1, 12, 10)...)
	c.Rects = append(c.Rects,
		Rect{X0: 0, Y0: 0, X1: 46, Y1: 2, Layer: Metal1},
		Rect{X0: 0, Y0: 18, X1: 46, Y1: 20, Layer: Metal1},
		Rect{X0: 20, Y0: 4, X1: 22, Y1: 16, Layer: Metal1}, // clock spine
		Rect{X0: 42, Y0: 4, X1: 44, Y1: 16, Layer: Metal1}, // output
	)
	return c
}

// Adder returns a 28-transistor full-adder bit slice, the datapath tile.
func Adder() Cell {
	c := Cell{Name: "fa", Width: 60, Height: 20, Transistors: 28}
	c.Rects = append(c.Rects, transistorGeometry(1, 3, 14)...)
	c.Rects = append(c.Rects, transistorGeometry(1, 12, 14)...)
	c.Rects = append(c.Rects,
		Rect{X0: 0, Y0: 0, X1: 60, Y1: 2, Layer: Metal1},
		Rect{X0: 0, Y0: 18, X1: 60, Y1: 20, Layer: Metal1},
		Rect{X0: 28, Y0: 4, X1: 30, Y1: 16, Layer: Metal1}, // carry chain
		Rect{X0: 56, Y0: 4, X1: 58, Y1: 16, Layer: Metal2}, // sum out
	)
	return c
}

// StdCells returns the logic-cell library (no SRAM) in a deterministic
// order for generator sampling.
func StdCells() []Cell {
	return []Cell{Inverter(), NAND2(), DFF(), Adder()}
}

// Place stamps a cell instance into the layout at origin (x, y). It
// returns an error when the instance would escape the layout bounds.
func (l *Layout) Place(c Cell, x, y int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if x < 0 || y < 0 || x+c.Width > l.Width || y+c.Height > l.Height {
		return fmt.Errorf("layout %q: cell %q at (%d,%d) escapes %d×%d bounds",
			l.Name, c.Name, x, y, l.Width, l.Height)
	}
	for _, r := range c.Rects {
		l.Rects = append(l.Rects, r.Translate(x, y))
	}
	l.Transistors += c.Transistors
	return nil
}
