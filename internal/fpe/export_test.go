package fpe

// Windows switches Reserve on and off, for the tests outside the package
// that drive whole applications with every op on the per-op path.
func Windows(on bool) { windowsOff = !on }
