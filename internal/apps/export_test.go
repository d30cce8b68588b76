package apps

// PoisonWorkingSets makes an execution on a reused arena fill the working
// sets the previous one left with NaN before any rank draws from them.
func PoisonWorkingSets(on bool) { poisonSets = on }

// ZeroPlane is the plane Layer reads past a domain edge.
func ZeroPlane() []float64 { return zeros[:] }
