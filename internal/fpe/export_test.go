package fpe

// Windows switches Reserve on and off, for the tests outside the package
// that drive whole applications with every op on the per-op path.
func Windows(on bool) { windowsOff = !on }

// Tallied is how many injectable ops Tally booked since the last reset.
func (c *Ctx) Tallied() uint64 { return c.tallied }
