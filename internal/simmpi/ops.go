package simmpi

import "fmt"

// Op is an element-wise reduction operator for Reduce/Allreduce.
type Op int

// The supported reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

// opCopy is a plain delivery: dst = src, of one length.
const opCopy Op = -1

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// apply folds src into dst element-wise: dst = dst (op) src, and panics
// unless they have one length.
// Reduction arithmetic happens inside the "network" and is therefore not an
// injection target, matching the paper's rule that errors are injected into
// application computation, never into MPI communication.
func (o Op) apply(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("simmpi: message of %d values received into %d", len(src), len(dst)))
	}
	switch o {
	case opCopy:
		copy(dst, src)
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case OpMin:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	case OpProd:
		for i := range dst {
			dst[i] *= src[i]
		}
	default:
		panic(fmt.Sprintf("simmpi: unknown reduction op %d", int(o)))
	}
}
