package simmpi

// PoisonFreed switches the NaN fill of recycled payload buffers, for the
// tests outside the package that drive whole applications over it.
func PoisonFreed(on bool) { poisonFreed = on }

// PerturbSchedule makes every world resume its ready ranks in an order
// drawn from seed instead of FIFO (0 restores FIFO), for the tests outside
// the package that check a result does not depend on the schedule.
func PerturbSchedule(seed uint64) { perturbSeed = seed }
