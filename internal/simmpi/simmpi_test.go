package simmpi

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// sizes exercised by most collective tests: powers of two and odd sizes.
var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func runOrFatal(t *testing.T, procs int, fn func(c *Comm) error) Stats {
	t.Helper()
	st, err := Run(Config{Procs: procs, Timeout: 10 * time.Second}, fn)
	if err != nil {
		t.Fatalf("Run(p=%d): %v", procs, err)
	}
	return st
}

func TestSendRecvBasic(t *testing.T) {
	runOrFatal(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("recv = %v", got)
			}
		}
		return nil
	})
}

func TestSendCopiesData(t *testing.T) {
	runOrFatal(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 1, buf)
			buf[0] = -1 // mutate after send; receiver must still see 42
		} else {
			if got := c.RecvValue(0, 1); got != 42 {
				t.Errorf("recv = %v, want 42", got)
			}
		}
		return nil
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	runOrFatal(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendValue(1, 100, 1)
			c.SendValue(1, 200, 2)
		} else {
			// Receive in reverse tag order; buffering must hold tag 100.
			if v := c.RecvValue(0, 200); v != 2 {
				t.Errorf("tag 200 = %v", v)
			}
			if v := c.RecvValue(0, 100); v != 1 {
				t.Errorf("tag 100 = %v", v)
			}
		}
		return nil
	})
}

func TestSameTagFIFO(t *testing.T) {
	runOrFatal(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.SendValue(1, 5, float64(i))
			}
		} else {
			for i := 0; i < 10; i++ {
				if v := c.RecvValue(0, 5); v != float64(i) {
					t.Errorf("message %d = %v", i, v)
				}
			}
		}
		return nil
	})
}

func TestSelfSend(t *testing.T) {
	runOrFatal(t, 1, func(c *Comm) error {
		c.SendValue(0, 9, 3.5)
		if v := c.RecvValue(0, 9); v != 3.5 {
			t.Errorf("self recv = %v", v)
		}
		return nil
	})
}

func TestBarrierAllSizes(t *testing.T) {
	for _, p := range testSizes {
		var mu sync.Mutex
		phase := make(map[int]int)
		runOrFatal(t, p, func(c *Comm) error {
			for round := 0; round < 3; round++ {
				mu.Lock()
				phase[c.Rank()] = round
				// After a barrier, no rank may still be in an older round.
				mu.Unlock()
				c.Barrier()
				mu.Lock()
				for r, ph := range phase {
					if ph < round {
						t.Errorf("p=%d: rank %d in phase %d after barrier of round %d",
							p, r, ph, round)
					}
				}
				mu.Unlock()
				c.Barrier()
			}
			return nil
		})
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range testSizes {
		for root := 0; root < p; root++ {
			runOrFatal(t, p, func(c *Comm) error {
				var payload []float64
				if c.Rank() == root {
					payload = []float64{float64(root), 3.14, -1}
				}
				got := c.Bcast(root, payload)
				if len(got) != 3 || got[0] != float64(root) || got[1] != 3.14 {
					t.Errorf("p=%d root=%d rank=%d: bcast = %v", p, root, c.Rank(), got)
				}
				return nil
			})
		}
	}
}

func TestReduceSumMatchesSerialFold(t *testing.T) {
	for _, p := range testSizes {
		for root := 0; root < p; root += max(1, p/3) {
			runOrFatal(t, p, func(c *Comm) error {
				data := []float64{float64(c.Rank() + 1), float64(c.Rank() * c.Rank())}
				got := c.Reduce(root, OpSum, data)
				if c.Rank() == root {
					wantA := float64(p*(p+1)) / 2
					var wantB float64
					for r := 0; r < p; r++ {
						wantB += float64(r * r)
					}
					if math.Abs(got[0]-wantA) > 1e-9 || math.Abs(got[1]-wantB) > 1e-9 {
						t.Errorf("p=%d root=%d: reduce = %v, want [%g %g]", p, root, got, wantA, wantB)
					}
				} else if got != nil {
					t.Errorf("non-root got %v", got)
				}
				return nil
			})
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	for _, p := range testSizes {
		runOrFatal(t, p, func(c *Comm) error {
			v := float64(c.Rank())
			if got := c.AllreduceValue(OpMax, v); got != float64(p-1) {
				t.Errorf("p=%d rank=%d: max = %v", p, c.Rank(), got)
			}
			if got := c.AllreduceValue(OpMin, v); got != 0 {
				t.Errorf("p=%d rank=%d: min = %v", p, c.Rank(), got)
			}
			return nil
		})
	}
}

func TestAllreduceIdenticalBitsOnAllRanks(t *testing.T) {
	// The key determinism property: every rank sees the *identical* float,
	// even for ill-conditioned sums.
	const p = 8
	results := make([]uint64, p)
	runOrFatal(t, p, func(c *Comm) error {
		v := math.Pow(10, float64(c.Rank()-4)) // wildly varying magnitudes
		got := c.AllreduceValue(OpSum, v)
		results[c.Rank()] = math.Float64bits(got)
		return nil
	})
	for r := 1; r < p; r++ {
		if results[r] != results[0] {
			t.Fatalf("rank %d allreduce bits differ from rank 0", r)
		}
	}
}

func TestAllreduceDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		var bits uint64
		runOrFatal(t, 8, func(c *Comm) error {
			v := 1.0 / float64(c.Rank()+3)
			got := c.AllreduceValue(OpSum, v)
			if c.Rank() == 0 {
				bits = math.Float64bits(got)
			}
			return nil
		})
		return bits
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("allreduce result differs across identical runs")
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	for _, p := range testSizes {
		runOrFatal(t, p, func(c *Comm) error {
			mine := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
			g := c.Gather(0, mine)
			if c.Rank() == 0 {
				for r := 0; r < p; r++ {
					if g[2*r] != float64(r) || g[2*r+1] != float64(r*10) {
						t.Errorf("p=%d: gather = %v", p, g)
					}
				}
			}
			back := c.Scatter(0, g)
			if len(back) != 2 || back[0] != mine[0] || back[1] != mine[1] {
				t.Errorf("p=%d rank=%d: scatter = %v, want %v", p, c.Rank(), back, mine)
			}
			return nil
		})
	}
}

func TestAllgather(t *testing.T) {
	runOrFatal(t, 5, func(c *Comm) error {
		got := c.Allgather([]float64{float64(c.Rank() + 1)})
		for r := 0; r < 5; r++ {
			if got[r] != float64(r+1) {
				t.Errorf("rank %d: allgather = %v", c.Rank(), got)
			}
		}
		return nil
	})
}

func TestAlltoallTransposes(t *testing.T) {
	for _, p := range testSizes {
		runOrFatal(t, p, func(c *Comm) error {
			send := make([][]float64, p)
			for r := 0; r < p; r++ {
				send[r] = []float64{float64(c.Rank()*100 + r)}
			}
			recv := c.Alltoall(send)
			for r := 0; r < p; r++ {
				want := float64(r*100 + c.Rank())
				if len(recv[r]) != 1 || recv[r][0] != want {
					t.Errorf("p=%d rank=%d from=%d: %v, want [%g]", p, c.Rank(), r, recv[r], want)
				}
			}
			return nil
		})
	}
}

func TestAlltoallBackToBack(t *testing.T) {
	// Two successive alltoalls must not cross-contaminate (FIFO matching).
	runOrFatal(t, 4, func(c *Comm) error {
		for iter := 0; iter < 5; iter++ {
			send := make([][]float64, 4)
			for r := 0; r < 4; r++ {
				send[r] = []float64{float64(iter*1000 + c.Rank()*10 + r)}
			}
			recv := c.Alltoall(send)
			for r := 0; r < 4; r++ {
				want := float64(iter*1000 + r*10 + c.Rank())
				if recv[r][0] != want {
					t.Errorf("iter %d rank %d: got %v want %g", iter, c.Rank(), recv[r][0], want)
				}
			}
		}
		return nil
	})
}

func TestRankErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Run(Config{Procs: 4, Timeout: 5 * time.Second}, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		c.Barrier() // blocks; must be released by the abort
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicBecomesPanicError(t *testing.T) {
	_, err := Run(Config{Procs: 3, Timeout: 5 * time.Second}, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("corrupted index")
		}
		c.Barrier()
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Rank != 1 {
		t.Fatalf("err = %v", err)
	}
}

func TestHangDetection(t *testing.T) {
	start := time.Now()
	_, err := Run(Config{Procs: 2, Timeout: 100 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 99) // never sent: hang
		}
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang detection took too long")
	}
}

// TestOverrunIsHang: a world still computing when its watchdog expires
// hung, even if it then finishes without another communication call.
func TestOverrunIsHang(t *testing.T) {
	_, err := Run(Config{Procs: 2, Timeout: 10 * time.Millisecond}, func(c *Comm) error {
		c.Barrier()
		time.Sleep(30 * time.Millisecond) // compute past the deadline
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := Run(Config{Procs: 0}, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Procs=0 accepted")
	}
}

func TestStatsCountMessages(t *testing.T) {
	st := runOrFatal(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1, 2, 3, 4})
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if st.Messages != 1 || st.Floats != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: Allreduce(sum) equals the serial left fold over rank order of
// the binomial tree — and in particular equals the exact sum for integers.
func TestAllreduceSumPropertyIntegers(t *testing.T) {
	f := func(seedRaw uint16, pRaw uint8) bool {
		p := int(pRaw%12) + 1
		vals := make([]float64, p)
		want := 0.0
		for i := range vals {
			vals[i] = float64(int(seedRaw)%97 + i*i)
			want += vals[i]
		}
		ok := true
		_, err := Run(Config{Procs: p, Timeout: 10 * time.Second}, func(c *Comm) error {
			got := c.AllreduceValue(OpSum, vals[c.Rank()])
			if got != want { // integer-valued: exact
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Bcast delivers bit-identical payloads of arbitrary size.
func TestBcastPayloadProperty(t *testing.T) {
	f := func(vals []float64, pRaw, rootRaw uint8) bool {
		p := int(pRaw%9) + 1
		root := int(rootRaw) % p
		ok := true
		_, err := Run(Config{Procs: p, Timeout: 10 * time.Second}, func(c *Comm) error {
			var in []float64
			if c.Rank() == root {
				in = vals
			}
			out := c.Bcast(root, in)
			if len(out) != len(vals) {
				ok = false
				return nil
			}
			for i := range vals {
				if math.Float64bits(out[i]) != math.Float64bits(vals[i]) {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallVariableSizes(t *testing.T) {
	// Payload sizes may differ per (src,dst) pair.
	runOrFatal(t, 4, func(c *Comm) error {
		send := make([][]float64, 4)
		for d := 0; d < 4; d++ {
			n := c.Rank() + d + 1 // distinct per pair
			buf := make([]float64, n)
			for i := range buf {
				buf[i] = float64(c.Rank()*100 + d*10 + i)
			}
			send[d] = buf
		}
		recv := c.Alltoall(send)
		for s := 0; s < 4; s++ {
			wantLen := s + c.Rank() + 1
			if len(recv[s]) != wantLen {
				t.Errorf("rank %d from %d: len %d, want %d", c.Rank(), s, len(recv[s]), wantLen)
				continue
			}
			for i, v := range recv[s] {
				if v != float64(s*100+c.Rank()*10+i) {
					t.Errorf("rank %d from %d at %d: %g", c.Rank(), s, i, v)
				}
			}
		}
		return nil
	})
}

func TestReduceMaxMinMatchFold(t *testing.T) {
	f := func(raw [6]int8, pRaw uint8) bool {
		p := int(pRaw%6) + 1
		vals := make([]float64, p)
		maxW, minW := math.Inf(-1), math.Inf(1)
		for i := 0; i < p; i++ {
			vals[i] = float64(raw[i%6]) / 3
			if vals[i] > maxW {
				maxW = vals[i]
			}
			if vals[i] < minW {
				minW = vals[i]
			}
		}
		ok := true
		_, err := Run(Config{Procs: p, Timeout: 10 * time.Second}, func(c *Comm) error {
			if c.AllreduceValue(OpMax, vals[c.Rank()]) != maxW {
				ok = false
			}
			if c.AllreduceValue(OpMin, vals[c.Rank()]) != minW {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManyWorldsSequentially(t *testing.T) {
	// Worlds are independent: running many in sequence must not leak state.
	for i := 0; i < 20; i++ {
		runOrFatal(t, 3, func(c *Comm) error {
			v := c.AllreduceValue(OpSum, 1)
			if v != 3 {
				t.Errorf("iteration %d: sum = %g", i, v)
			}
			return nil
		})
	}
}
