package analytic

import "math"

// Ratio returns the modeled miss ratio at the given size: the exact power
// law that the fit tests generate their points from.
func (m MissModel) Ratio(size float64) float64 {
	return m.M0 * math.Pow(size/m.S0, -m.Alpha)
}
