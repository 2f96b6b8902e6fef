// Package devices embeds the paper's Table A1: the study of 49 published
// industrial designs (ISSCC/JSSC/CICC, refs [5–29]) from which the design
// decompression indices s_d of Figure 1 were extracted.
//
// Transcription note: the available scan of the paper renders several raw
// geometry cells of Table A1 illegibly, while the extracted s_d columns —
// the quantity every analysis in the paper uses — survive cleanly. This
// dataset therefore takes the published s_d values (and the device
// identities, feature sizes, and memory/logic splits where legible) as
// authoritative and back-solves the remaining geometry so that every row
// is exactly self-consistent with eq (2): area = N_tr·λ²·s_d. Aggregate
// properties asserted by tests match the paper's claims: logic s_d spans
// ≈100–770 squares/transistor, memory s_d sits near 30–100 (SRAM ≈ 30),
// Intel's s_d worsens across the Pentium line, AMD runs denser than Intel
// until the K7 crosses 300, and ASIC-class parts populate the sparse tail.
package devices

import (
	"fmt"

	"repro/internal/core"
)

// Kind classifies a Table A1 device.
type Kind string

// Device kinds present in Table A1.
const (
	KindCPU  Kind = "CPU"
	KindDSP  Kind = "DSP"
	KindMPEG Kind = "MPEG"
	KindASIC Kind = "ASIC"
	KindSRAM Kind = "SRAM"
)

// Device is one row of Table A1.
type Device struct {
	ID       int
	Name     string
	Vendor   string
	Kind     Kind
	Year     int
	LambdaUM float64 // minimum feature size, µm

	MemTransistors   float64 // transistors in embedded memory (0 when no split)
	LogicTransistors float64 // transistors in logic (total when no split)
	SdMem            float64 // published memory s_d (0 when no split)
	SdLogic          float64 // published logic s_d
}

// row builds a Device from millions of transistors.
func row(id int, name, vendor string, kind Kind, year int, lambda, memM, logicM, sdMem, sdLogic float64) Device {
	return Device{
		ID: id, Name: name, Vendor: vendor, Kind: kind, Year: year,
		LambdaUM:       lambda,
		MemTransistors: memM * 1e6, LogicTransistors: logicM * 1e6,
		SdMem: sdMem, SdLogic: sdLogic,
	}
}

// tableA1 is the embedded dataset. Order follows the paper's table:
// Intel, AMD, PowerPC/IBM/Motorola, other RISC, DSP, MPEG, ASIC, SRAM.
var tableA1 = []Device{
	row(1, "CPU (1.5um)", "Intel", KindCPU, 1989, 1.50, 0, 0.19, 0, 110.5),
	row(2, "Pentium (P5)", "Intel", KindCPU, 1993, 0.80, 0.10, 3.00, 46.88, 104.1),
	row(3, "Pentium (P54)", "Intel", KindCPU, 1994, 0.60, 0, 3.30, 0, 146.4),
	row(4, "Pentium (P54C)", "Intel", KindCPU, 1995, 0.60, 0, 3.10, 0, 132.6),
	row(5, "Pentium Pro", "Intel", KindCPU, 1995, 0.60, 0, 5.50, 0, 154.5),
	row(6, "Pentium Pro (0.35)", "Intel", KindCPU, 1997, 0.35, 0.77, 4.73, 53.15, 327.9),
	row(7, "Pentium MMX", "Intel", KindCPU, 1997, 0.35, 0, 4.50, 0, 253.7),
	row(8, "Pentium II (P6)", "Intel", KindCPU, 1997, 0.35, 1.23, 6.28, 52.09, 233.6),
	row(9, "Pentium II (P6, 0.25)", "Intel", KindCPU, 1998, 0.25, 1.23, 6.28, 52.08, 323.0),
	row(10, "Pentium MMX (0.25)", "Intel", KindCPU, 1998, 0.25, 0, 4.50, 0, 207.1),
	row(11, "Pentium III", "Intel", KindCPU, 1999, 0.25, 0, 9.50, 0, 207.1),
	row(12, "K5", "AMD", KindCPU, 1996, 0.35, 1.15, 3.15, 42.59, 206.2),
	row(13, "K6 (Model 6)", "AMD", KindCPU, 1997, 0.35, 2.10, 6.70, 47.40, 186.2),
	row(14, "K6 (Model 7)", "AMD", KindCPU, 1998, 0.25, 3.10, 5.70, 41.47, 168.4),
	row(15, "K6-2", "AMD", KindCPU, 1998, 0.25, 0, 9.30, 0, 116.9),
	row(16, "K6-III", "AMD", KindCPU, 1999, 0.25, 14.0, 7.30, 45.0, 150.0),
	row(17, "K7 (Athlon)", "AMD", KindCPU, 1999, 0.25, 6.00, 16.0, 51.44, 335.6),
	row(18, "PowerPC 601", "Motorola", KindCPU, 1993, 0.60, 0, 2.80, 0, 171.4),
	row(19, "PowerPC 604", "Motorola", KindCPU, 1995, 0.50, 0, 3.60, 0, 216.6),
	row(20, "PowerPC 620", "Motorola", KindCPU, 1996, 0.35, 6.00, 6.00, 38.10, 182.3),
	row(21, "S/390 G4", "IBM", KindCPU, 1997, 0.35, 0, 7.80, 0, 284.8),
	row(22, "PowerPC 750", "IBM", KindCPU, 1998, 0.25, 0, 6.25, 0, 169.5),
	row(23, "PowerPC 7400", "Motorola", KindCPU, 1999, 0.22, 24.0, 10.0, 43.43, 195.0),
	row(24, "S/390 G5", "IBM", KindCPU, 1999, 0.25, 18.0, 7.00, 48.90, 260.2),
	row(25, "PowerPC 405", "IBM", KindCPU, 1999, 0.20, 3.00, 3.50, 72.92, 416.0),
	row(26, "PowerPC (Cu, SOI)", "IBM", KindCPU, 1999, 0.15, 3.10, 7.10, 174.2, 280.3),
	row(27, "Embedded RISC", "NEC", KindCPU, 1996, 0.35, 1.15, 1.35, 85.0, 290.0),
	row(28, "Alpha 21264 (SOI)", "DEC", KindCPU, 1999, 0.25, 4.50, 5.16, 163.2, 533.3),
	row(29, "Media GX", "Cyrix", KindCPU, 1997, 0.35, 0, 2.40, 0, 223.3),
	row(30, "6x86MX", "Cyrix", KindCPU, 1997, 0.35, 0, 6.00, 0, 263.9),
	row(31, "RISC CPU (0.4)", "NEC", KindCPU, 1994, 0.40, 0, 3.30, 0, 231.9),
	row(32, "RISC CPU (0.25)", "Hitachi", KindCPU, 1998, 0.25, 0, 5.70, 0, 283.5),
	row(33, "PA-RISC 8500", "HP", KindCPU, 1999, 0.25, 92.0, 24.0, 40.0, 158.6),
	row(34, "MIPS64", "NEC", KindCPU, 1999, 0.18, 5.20, 2.00, 89.03, 293.2),
	row(35, "MIPS64 (0.13)", "NEC", KindCPU, 2000, 0.13, 5.20, 2.00, 100.1, 331.3),
	row(36, "MAJC 5200", "Sun", KindCPU, 1999, 0.22, 3.70, 9.20, 89.35, 583.9),
	row(37, "z900", "IBM", KindCPU, 2000, 0.18, 3.40, 1.30, 54.47, 278.2),
	row(38, "Alpha 21364", "DEC", KindCPU, 2000, 0.18, 138.0, 14.0, 61.88, 264.5),
	row(39, "DSP (0.6)", "TI", KindDSP, 1995, 0.60, 0, 0.80, 0, 250.2),
	row(40, "DSP (0.4)", "TI", KindDSP, 1998, 0.40, 0, 12.0, 0, 117.5),
	row(41, "DSP (0.35)", "Lucent", KindDSP, 1997, 0.35, 0, 4.00, 0, 363.0),
	row(42, "MPEG-2 encoder", "C-Cube", KindMPEG, 1996, 0.50, 0, 2.00, 0, 544.5),
	row(43, "MPEG-2 codec", "Sony", KindMPEG, 1997, 0.35, 0, 3.79, 0, 350.9),
	row(44, "MPEG-2 decoder", "NEC", KindMPEG, 1997, 0.35, 0, 3.10, 0, 408.1),
	row(45, "ASIC (mixed)", "LSI", KindASIC, 1997, 0.35, 0, 1.00, 0, 299.2),
	row(46, "ASIC telecom", "LSI", KindASIC, 1999, 0.25, 0, 10.0, 0, 480.0),
	row(47, "Video game chip", "Sony", KindASIC, 2000, 0.18, 0, 10.5, 0, 699.5),
	row(48, "ATM switch", "NEC", KindASIC, 1997, 0.35, 0, 2.40, 0, 765.3),
	row(49, "8Mb SRAM", "IBM", KindSRAM, 1999, 0.18, 48.0, 0, 32.0, 0),
}

// All returns every Table A1 device in table order. The slice is a copy.
func All() []Device {
	return append([]Device(nil), tableA1...)
}

// ByID returns the device with the given Table A1 row number.
func ByID(id int) (Device, error) {
	for _, d := range tableA1 {
		if d.ID == id {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("devices: no Table A1 row %d", id)
}

// TotalTransistors returns the device's transistor count.
func (d Device) TotalTransistors() float64 { return d.MemTransistors + d.LogicTransistors }

// MemAreaCM2 returns the embedded-memory area implied by eq (2).
func (d Device) MemAreaCM2() float64 {
	if d.MemTransistors == 0 {
		return 0
	}
	return d.MemTransistors * core.LambdaSquaredCM2(d.LambdaUM) * d.SdMem
}

// LogicAreaCM2 returns the logic area implied by eq (2).
func (d Device) LogicAreaCM2() float64 {
	if d.LogicTransistors == 0 {
		return 0
	}
	return d.LogicTransistors * core.LambdaSquaredCM2(d.LambdaUM) * d.SdLogic
}

// DieAreaCM2 returns the total die area.
func (d Device) DieAreaCM2() float64 { return d.MemAreaCM2() + d.LogicAreaCM2() }

// SdTotal returns the whole-die decompression index
// A_die/(N_total·λ²) — the blended s_d when memory and logic are pooled.
func (d Device) SdTotal() (float64, error) {
	return core.SdFromLayout(d.DieAreaCM2(), d.TotalTransistors(), d.LambdaUM)
}

// Validate reports the first inconsistency in d, or nil.
func (d Device) Validate() error {
	if d.LambdaUM <= 0 {
		return fmt.Errorf("devices: row %d (%s): feature size must be positive", d.ID, d.Name)
	}
	if d.TotalTransistors() <= 0 {
		return fmt.Errorf("devices: row %d (%s): no transistors", d.ID, d.Name)
	}
	if d.MemTransistors > 0 && d.SdMem <= 0 {
		return fmt.Errorf("devices: row %d (%s): memory present without SdMem", d.ID, d.Name)
	}
	if d.LogicTransistors > 0 && d.SdLogic <= 0 {
		return fmt.Errorf("devices: row %d (%s): logic present without SdLogic", d.ID, d.Name)
	}
	if d.MemTransistors == 0 && d.LogicTransistors == 0 {
		return fmt.Errorf("devices: row %d (%s): empty device", d.ID, d.Name)
	}
	return nil
}
