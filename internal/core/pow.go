package core

import (
	"math"
	"runtime"
)

// fixedPow is math.Pow(x, y) prepared for one exponent y, for kernels
// that raise many bases to the same power (the eq (6) decompression
// index p2 of every Monte Carlo draw).
//
// math.Pow is pure Go on every platform but s390x. Its general branch
// splits y into an integer part yi and a fraction yf in (−0.5, 0.5],
// and returns Ldexp(Exp(yf·Log(x)) · x1^yi, ·) with x1 the Frexp
// mantissa of x, squared and multiplied along the bits of yi. fixedPow
// splits y once and runs exactly that branch, the same float operations
// in the same order, for the bases where math.Pow would take it and the
// final power-of-two scaling is an exact exponent shift. Every other
// base, and every base when y is one of math.Pow's special exponents or
// on s390x, goes to math.Pow itself, so pow(x) is bit for bit
// math.Pow(x, y).
type fixedPow struct {
	y       float64
	general bool    // y takes math.Pow's general branch
	yi      int64   // integer part of |y|, rounded up when yf > 0.5
	yf      float64 // fraction of |y|, moved into (−0.5, 0.5]
}

func newFixedPow(y float64) fixedPow {
	p := fixedPow{y: y}
	if runtime.GOARCH == "s390x" || y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0) {
		return p
	}
	yi, yf := math.Modf(math.Abs(y))
	if yi >= 1<<63 {
		return p
	}
	if yf > 0.5 {
		yf--
		yi++
	}
	p.general, p.yi, p.yf = true, int64(yi), yf
	return p
}

// pow returns math.Pow(x, p.y), bit for bit.
func (p *fixedPow) pow(x float64) float64 {
	// math.Pow's special cases and its general branch's Frexp and Ldexp
	// special cases are all outside positive normal bases other than 1.
	if !p.general || !(x >= 0x1p-1022 && x <= math.MaxFloat64) || x == 1 {
		return math.Pow(x, p.y)
	}
	a1 := 1.0
	if p.yf != 0 {
		a1 = math.Exp(p.yf * math.Log(x))
	}
	// Frexp of a normal x: the mantissa in [0.5, 1) and its exponent.
	xb := math.Float64bits(x)
	xe := int(xb>>52&0x7ff) - 1022
	x1 := math.Float64frombits(xb&^(0x7ff<<52) | 1022<<52)
	ae := 0
	for i := p.yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if p.y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	// Ldexp(a1, ae) shifts a normal a1's exponent when the result stays
	// normal; underflow, overflow and a non-normal a1 go to math.Pow.
	ab := math.Float64bits(a1)
	e := int(ab >> 52 & 0x7ff)
	if e == 0 || e == 0x7ff {
		return math.Pow(x, p.y)
	}
	e += ae
	if e < 1 || e > 0x7fe {
		return math.Pow(x, p.y)
	}
	return math.Float64frombits(ab&^(0x7ff<<52) | uint64(e)<<52)
}
