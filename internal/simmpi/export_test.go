package simmpi

// PoisonFreed switches the NaN fill of recycled payload buffers, for the
// tests outside the package that drive whole applications over it.
func PoisonFreed(on bool) { poisonFreed = on }
