package devices

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/stats"
)

// VendorTrend fits logic s_d against year for one vendor's CPUs and
// returns the regression. A positive slope is the "worsening design
// density" trend §2.2.2 identifies for major microprocessor producers.
func VendorTrend(vendor string) (stats.LinearFit, error) {
	var xs, ys []float64
	for _, d := range tableA1 {
		if d.Vendor == vendor && d.Kind == KindCPU && d.LogicTransistors > 0 {
			xs = append(xs, float64(d.Year))
			ys = append(ys, d.SdLogic)
		}
	}
	if len(xs) < 2 {
		return stats.LinearFit{}, fmt.Errorf("devices: vendor %q has %d CPU rows, need at least 2", vendor, len(xs))
	}
	return stats.LinearRegression(xs, ys)
}

// MeanLogicSd returns the mean logic s_d of a vendor's CPUs, optionally
// restricted to years strictly before beforeYear (0 = no restriction).
func MeanLogicSd(vendor string, beforeYear int) (float64, error) {
	var xs []float64
	for _, d := range tableA1 {
		if d.Vendor != vendor || d.Kind != KindCPU || d.LogicTransistors == 0 {
			continue
		}
		if beforeYear != 0 && d.Year >= beforeYear {
			continue
		}
		xs = append(xs, d.SdLogic)
	}
	if len(xs) == 0 {
		return 0, errors.New("devices: no matching rows")
	}
	mean, _, err := stats.MeanStderr(xs)
	return mean, err
}

// Figure1Point is one marker of the Figure 1 scatter: a device's logic
// s_d against its feature size.
type Figure1Point struct {
	Device   string
	Vendor   string
	Kind     Kind
	Year     int
	LambdaUM float64
	SdLogic  float64
}

// Figure1Series returns the Figure 1 scatter data — every device with
// logic, ordered by year then table order — from which the paper reads the
// industry-wide worsening of design density.
func Figure1Series() []Figure1Point {
	var pts []Figure1Point
	for _, d := range tableA1 {
		if d.LogicTransistors == 0 {
			continue
		}
		pts = append(pts, Figure1Point{
			Device: d.Name, Vendor: d.Vendor, Kind: d.Kind,
			Year: d.Year, LambdaUM: d.LambdaUM, SdLogic: d.SdLogic,
		})
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Year < pts[j].Year })
	return pts
}

// IndustryTrend fits logic s_d against year across all CPUs in the table.
// The paper's headline observation is that this slope is positive: time-to-
// market pressure is decompressing designs faster than interconnect needs
// explain.
func IndustryTrend() (stats.LinearFit, error) {
	var xs, ys []float64
	for _, d := range tableA1 {
		if d.Kind == KindCPU && d.LogicTransistors > 0 {
			xs = append(xs, float64(d.Year))
			ys = append(ys, d.SdLogic)
		}
	}
	return stats.LinearRegression(xs, ys)
}
