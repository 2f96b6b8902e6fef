package stats

import "errors"

// LinearFit is the result of an ordinary-least-squares fit y = a + b·x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
	N         int
}

// LinearRegression fits y = a + b·x by ordinary least squares. It returns
// an error when fewer than two points are supplied, the lengths differ, or
// all x values coincide.
func LinearRegression(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: regression sample length mismatch")
	}
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: regression requires at least two points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: regression undefined for constant x")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		var sse float64
		for i := range xs {
			r := ys[i] - (a + b*xs[i])
			sse += r * r
		}
		r2 = 1 - sse/syy
	}
	return LinearFit{Intercept: a, Slope: b, R2: r2, N: len(xs)}, nil
}
