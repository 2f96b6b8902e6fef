// Package regularity implements repetitive-pattern analysis of layouts in
// the spirit of the paper's reference [33] (Niewczas, Maly, Strojwas, "An
// Algorithm for Determining Repetitive Patterns in Very Large IC
// Layouts"): it partitions a layout into fixed-pitch windows, canonicalizes
// the geometry inside each window, and counts how many distinct window
// patterns the design uses. §3.2's thesis is that designs built from few
// unique patterns let expensive simulation/characterization results be
// reused, containing design cost; the metrics here quantify exactly that
// reuse opportunity.
package regularity

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/layout"
)

// Pattern is the canonical form of one window's geometry: rectangles
// clipped to the window and expressed in window-local coordinates, sorted
// deterministically. Two windows with identical Pattern keys contain
// pixel-identical geometry.
type Pattern struct {
	Key   [32]byte // content hash
	Rects int      // rectangle count inside the window (post-clip)
}

// Empty reports whether the pattern contains no geometry.
func (p Pattern) Empty() bool { return p.Rects == 0 }

// localRect is a window-local clipped rectangle, the canonicalization
// intermediate.
type localRect struct{ x0, y0, x1, y1, layer int }

// cmpLocalRect is the canonical (total) ordering of clipped rectangles.
func cmpLocalRect(a, b localRect) int {
	switch {
	case a.layer != b.layer:
		return a.layer - b.layer
	case a.x0 != b.x0:
		return a.x0 - b.x0
	case a.y0 != b.y0:
		return a.y0 - b.y0
	case a.x1 != b.x1:
		return a.x1 - b.x1
	}
	return a.y1 - b.y1
}

// Scanner runs window scans while reusing every intermediate buffer —
// the per-window rectangle index, the canonicalization scratch, the hash
// input buffer, the pattern list, and the Analyze tallies — so repeated
// scans (one per candidate pitch in BestPitch, one per style in the
// regularity studies) allocate almost nothing after the first.
//
// A Scanner is not safe for concurrent use; create one per goroutine or
// use the package-level functions, which draw from an internal pool.
type Scanner struct {
	cells  [][]layout.Rect // window buckets, row-major nx×ny, capacity reused
	ls     []localRect     // canonicalize scratch
	buf    []byte          // hash input scratch
	pats   []Pattern       // scan output, reused across scans
	counts map[[32]byte]int
	freqs  []int
}

// NewScanner returns a Scanner with empty buffers.
func NewScanner() *Scanner {
	return &Scanner{counts: make(map[[32]byte]int)}
}

var scannerPool = sync.Pool{New: func() any { return NewScanner() }}

// canonicalize clips every rectangle of the bucket to the window at
// (wx, wy) with the given pitch and produces the canonical pattern.
// Clipping keeps the analysis exact for geometry spanning window
// boundaries: each window sees precisely the shapes that fall inside it.
func (s *Scanner) canonicalize(rects []layout.Rect, wx, wy, pitch int) Pattern {
	ls := s.ls[:0]
	for _, r := range rects {
		x0, y0 := r.X0-wx, r.Y0-wy
		x1, y1 := r.X1-wx, r.Y1-wy
		if x0 < 0 {
			x0 = 0
		}
		if y0 < 0 {
			y0 = 0
		}
		if x1 > pitch {
			x1 = pitch
		}
		if y1 > pitch {
			y1 = pitch
		}
		if x1 <= x0 || y1 <= y0 {
			continue
		}
		ls = append(ls, localRect{x0, y0, x1, y1, int(r.Layer)})
	}
	s.ls = ls
	slices.SortFunc(ls, cmpLocalRect)
	buf := s.buf[:0]
	for _, r := range ls {
		for _, v := range [5]int{r.layer, r.x0, r.y0, r.x1, r.y1} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
		}
	}
	s.buf = buf
	return Pattern{Key: sha256.Sum256(buf), Rects: len(ls)}
}

// index buckets rectangles by the windows they touch, so the scan is
// linear in (rects × windows-touched) instead of rects × windows. The
// buckets live in a flat row-major grid whose backing (and per-bucket
// capacity) persists across scans.
func (s *Scanner) index(l *layout.Layout, pitch, nx, ny int) {
	n := nx * ny
	if cap(s.cells) < n {
		s.cells = append(s.cells[:cap(s.cells)], make([][]layout.Rect, n-cap(s.cells))...)
	}
	s.cells = s.cells[:n]
	for i := range s.cells {
		s.cells[i] = s.cells[i][:0]
	}
	for _, r := range l.Rects {
		wx0, wy0 := r.X0/pitch, r.Y0/pitch
		wx1, wy1 := (r.X1-1)/pitch, (r.Y1-1)/pitch
		for wy := wy0; wy <= wy1; wy++ {
			for wx := wx0; wx <= wx1; wx++ {
				s.cells[wy*nx+wx] = append(s.cells[wy*nx+wx], r)
			}
		}
	}
}

// scan produces the canonical pattern of every window in row-major order
// into the Scanner's reused pattern buffer. The returned slice is owned
// by the Scanner and valid until the next scan.
func (s *Scanner) scan(l *layout.Layout, pitch int) ([]Pattern, error) {
	if pitch <= 0 {
		return nil, fmt.Errorf("regularity: pitch must be positive, got %d", pitch)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	nx := (l.Width + pitch - 1) / pitch
	ny := (l.Height + pitch - 1) / pitch
	s.index(l, pitch, nx, ny)
	pats := s.pats[:0]
	for wy := 0; wy < ny; wy++ {
		for wx := 0; wx < nx; wx++ {
			pats = append(pats, s.canonicalize(s.cells[wy*nx+wx], wx*pitch, wy*pitch, pitch))
		}
	}
	s.pats = pats
	return pats, nil
}
