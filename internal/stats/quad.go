package stats

import (
	"errors"
	"math"
)

// Integrate approximates the definite integral of f over [a, b] using
// adaptive Simpson quadrature with absolute tolerance tol (default 1e-10
// when non-positive). It is used by internal/yield to evaluate the Murphy
// yield integral for arbitrary defect-density distributions.
func Integrate(f func(float64) float64, a, b, tol float64) (float64, error) {
	if a == b {
		return 0, nil
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	if tol <= 0 {
		tol = 1e-10
	}
	fa, fb := f(a), f(b)
	m, fm, whole := simpsonStep(f, a, b, fa, fb)
	v, err := adaptiveSimpson(f, a, b, fa, fb, m, fm, whole, tol, 50)
	if err != nil {
		return 0, err
	}
	return sign * v, nil
}

// simpsonStep returns the midpoint, f(midpoint) and the Simpson estimate
// over [a, b].
func simpsonStep(f func(float64) float64, a, b, fa, fb float64) (m, fm, s float64) {
	m = 0.5 * (a + b)
	fm = f(m)
	s = (b - a) / 6 * (fa + 4*fm + fb)
	return m, fm, s
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fb, m, fm, whole, tol float64, depth int) (float64, error) {
	lm, flm, left := simpsonStep(f, a, m, fa, fm)
	rm, frm, right := simpsonStep(f, m, b, fm, fb)
	delta := left + right - whole
	if math.Abs(delta) <= 15*tol {
		return left + right + delta/15, nil
	}
	if depth <= 0 {
		return 0, errors.New("stats: Integrate failed to converge (recursion limit)")
	}
	lv, err := adaptiveSimpson(f, a, m, fa, fm, lm, flm, left, tol/2, depth-1)
	if err != nil {
		return 0, err
	}
	rv, err := adaptiveSimpson(f, m, b, fm, fb, rm, frm, right, tol/2, depth-1)
	if err != nil {
		return 0, err
	}
	return lv + rv, nil
}
