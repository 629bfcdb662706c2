// Package energy adds the energy-cost model the paper names as future
// work ("Arunkumar et al. proposed an energy cost model for multi-chip
// scale-up design. Energy-cost model could be integrated to our work",
// §VI). It charges communication energy per bit moved on each link class
// plus router traversal energy, and compute energy per MAC — the standard
// per-component accounting of the multi-chip-module energy literature
// (Arunkumar et al., HPCA 2019; Dally et al., VLSI 2018).
package energy

import "errors"

// Params are per-event energy costs in picojoules.
type Params struct {
	// IntraPackagePJPerBit is the energy to move one bit over an
	// on-package (interposer/MCM) link; ~0.5 pJ/bit.
	IntraPackagePJPerBit float64
	// InterPackagePJPerBit is the energy per bit over an off-package
	// (SerDes) link; ~5 pJ/bit.
	InterPackagePJPerBit float64
	// ScaleOutPJPerBit is the energy per bit across the scale-out
	// (ethernet-like) fabric, optics and NIC included; ~15 pJ/bit.
	ScaleOutPJPerBit float64
	// RouterPJPerBit is the buffering/arbitration energy per bit per
	// router traversal.
	RouterPJPerBit float64
	// MACPicojoules is the energy of one bf16 multiply-accumulate.
	MACPicojoules float64
}

// Default returns literature-typical costs for a 2020-era multi-chip
// accelerator package.
func Default() Params {
	return Params{
		IntraPackagePJPerBit: 0.5,
		InterPackagePJPerBit: 5.0,
		ScaleOutPJPerBit:     15.0,
		RouterPJPerBit:       0.1,
		MACPicojoules:        0.5,
	}
}

// Validate reports the first non-positive parameter.
func (p Params) Validate() error {
	if p.IntraPackagePJPerBit <= 0 || p.InterPackagePJPerBit <= 0 ||
		p.ScaleOutPJPerBit <= 0 || p.RouterPJPerBit < 0 || p.MACPicojoules < 0 {
		return errors.New("energy: parameters must be positive")
	}
	return nil
}

// Breakdown is an energy report in joules.
type Breakdown struct {
	IntraPackage float64
	InterPackage float64
	ScaleOut     float64
	Router       float64
	Compute      float64
}

// Communication returns all link and router energy.
func (b Breakdown) Communication() float64 {
	return b.IntraPackage + b.InterPackage + b.ScaleOut + b.Router
}

// Total sums every component.
func (b Breakdown) Total() float64 { return b.Communication() + b.Compute }

const pJ = 1e-12

// CommEnergy computes the communication energy of the bytes a network
// carried per link class (noc.Network.TotalBytesByClass, either backend).
func CommEnergy(intra, inter, scaleOut int64, p Params) Breakdown {
	intraBits := float64(intra) * 8
	interBits := float64(inter) * 8
	soBits := float64(scaleOut) * 8
	return Breakdown{
		IntraPackage: intraBits * p.IntraPackagePJPerBit * pJ,
		InterPackage: interBits * p.InterPackagePJPerBit * pJ,
		ScaleOut:     soBits * p.ScaleOutPJPerBit * pJ,
		// One router traversal per link hop; every byte on a link
		// passed exactly one router.
		Router: (intraBits + interBits + soBits) * p.RouterPJPerBit * pJ,
	}
}

// ComputeEnergy returns the energy of a MAC count.
func ComputeEnergy(macs int64, p Params) float64 {
	return float64(macs) * p.MACPicojoules * pJ
}
