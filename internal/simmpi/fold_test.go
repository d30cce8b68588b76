package simmpi

import (
	"math"
	"testing"
)

// foldValue is rank's i-th contribution: magnitudes from 7^-11 to 7^11 with
// alternating signs, so a sum or product taken in another order differs in
// its last bits.
func foldValue(rank, i int) float64 {
	return math.Pow(-7, float64((rank*5+i*3)%23-11)) / 3
}

// foldOps are the four reductions written out again, apart from Op.apply.
var foldOps = map[Op]func(a, b float64) float64{
	OpSum:  func(a, b float64) float64 { return a + b },
	OpProd: func(a, b float64) float64 { return a * b },
	OpMax: func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	},
	OpMin: func(a, b float64) float64 {
		if b < a {
			return b
		}
		return a
	},
}

// oracleFold replays a rooted reduction on one goroutine, knowing only the
// definition of the binomial tree: in the space rotated so that root is 0,
// the children of v are v with one more bit set below v's lowest set bit
// (any bit, for 0), and a node folds its children's subtrees into its own
// value in ascending bit order.  vals is indexed by communicator rank.
func oracleFold(op func(a, b float64) float64, vals []float64, root int) float64 {
	p := len(vals)
	var subtree func(v int) float64
	subtree = func(v int) float64 {
		acc := vals[(v+root)%p]
		for bit := 1; bit < p && v&bit == 0; bit <<= 1 {
			if child := v | bit; child < p {
				acc = op(acc, subtree(child))
			}
		}
		return acc
	}
	return subtree(0)
}

// checkFolds runs Reduce to every root, Allreduce and AllreduceValue with
// every op on c and compares each result's bits with the oracle's.  ranks
// maps c's ranks to the world ranks whose values they contribute.
func checkFolds(t *testing.T, what string, c *Comm, ranks []int) {
	const width = 3
	data := make([]float64, width)
	for i := range data {
		data[i] = foldValue(ranks[c.Rank()], i)
	}
	want := func(op Op, root, i int) uint64 {
		vals := make([]float64, len(ranks))
		for r, wr := range ranks {
			vals[r] = foldValue(wr, i)
		}
		return math.Float64bits(oracleFold(foldOps[op], vals, root))
	}
	for op := OpSum; op <= OpProd; op++ { // every rank in one order
		for root := 0; root < c.Size(); root++ {
			got := c.Reduce(root, op, data)
			if c.Rank() != root {
				if got != nil {
					t.Errorf("%s %v root %d: rank %d got %v", what, op, root, c.Rank(), got)
				}
				continue
			}
			for i := range got {
				if g, w := math.Float64bits(got[i]), want(op, root, i); g != w {
					t.Errorf("%s Reduce(%v) root %d value %d: bits %x, oracle %x", what, op, root, i, g, w)
				}
			}
		}
		for i, v := range c.Allreduce(op, data) {
			if g, w := math.Float64bits(v), want(op, 0, i); g != w {
				t.Errorf("%s Allreduce(%v) rank %d value %d: bits %x, oracle %x", what, op, c.Rank(), i, g, w)
			}
		}
		if g, w := math.Float64bits(c.AllreduceValue(op, data[0])), want(op, 0, 0); g != w {
			t.Errorf("%s AllreduceValue(%v) rank %d: bits %x, oracle %x", what, op, c.Rank(), g, w)
		}
	}
	for i := range data {
		if data[i] != foldValue(ranks[c.Rank()], i) {
			t.Errorf("%s: rank %d's contribution was written to", what, c.Rank())
		}
	}
}

// TestFoldOrderOracle pins every reduction's bits to the binomial fold, on
// the world and on the two halves of a Split that reverses the rank order.
func TestFoldOrderOracle(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 7, 8, 17, 33, 64, 100} {
		world := make([]int, p)
		var halves [2][]int
		for r := range world {
			world[r] = r
		}
		for r := p - 1; r >= 0; r-- {
			halves[r%2] = append(halves[r%2], r)
		}
		runOrFatal(t, p, func(c *Comm) error {
			checkFolds(t, "world", c, world)
			sub := c.Split(c.Rank()%2, -c.Rank())
			checkFolds(t, "half", sub, halves[c.Rank()%2])
			return nil
		})
	}
}

// TestFoldBitsFromTreeReduce holds sums the message-passing binomial trees
// produced (PR 22's binary, before the rendezvous replaced them), so that
// implementation and oracle cannot drift together.
func TestFoldBitsFromTreeReduce(t *testing.T) {
	for p, want := range map[int][3]uint64{
		5:  {0xc169a79441861271, 0xbd27e917bd68824e, 0x419672a1b9555026},
		17: {0xc1c3fc42ec05357d, 0x3cd8329c9139a78f, 0x41932f52e123b37a},
		64: {0xc1db2e2dc49d4569, 0x3997a0a91194ed94, 0xc1d9cf5eb4886f73},
	} {
		runOrFatal(t, p, func(c *Comm) error {
			root := p / 3
			got := [3]uint64{
				math.Float64bits(c.AllreduceValue(OpSum, foldValue(c.Rank(), 0))),
				math.Float64bits(c.AllreduceValue(OpProd, foldValue(c.Rank(), 1))),
			}
			if sum := c.Reduce(root, OpSum, []float64{foldValue(c.Rank(), 2)}); c.Rank() == root {
				got[2] = math.Float64bits(sum[0])
			} else {
				got[2] = want[2]
			}
			if got != want {
				t.Errorf("p=%d rank %d: allreduce sum, allreduce prod, reduce-to-%d sum bits %#x, the trees gave %#x",
					p, c.Rank(), root, got, want)
			}
			return nil
		})
	}
}
