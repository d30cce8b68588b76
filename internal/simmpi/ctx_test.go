package simmpi

import (
	"context"
	"errors"
	"testing"
	"time"
)

// pingPong is a livelock: the two ranks exchange messages for as long as
// the world lasts, so that only the context or the watchdog can end it (a
// world in which every rank blocks ends at once, as a hang).
func pingPong(c *Comm) error {
	for peer := 1 - c.Rank(); ; {
		c.SendValue(peer, 1, 0)
		c.RecvValue(peer, 1)
	}
}

func TestRunCtxCancellationReleasesBlockedRanks(t *testing.T) {
	// Only the context cancellation can end the ranks' exchange.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunCtx(ctx, Config{Procs: 2, Timeout: 30 * time.Second}, pingPong)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to release blocked ranks", elapsed)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, does not wrap context.Canceled", err)
	}
}

func TestRunCtxCompletesNormallyUnderLiveContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := RunCtx(ctx, Config{Procs: 4, Timeout: 10 * time.Second}, func(c *Comm) error {
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages == 0 {
		t.Fatal("barrier exchanged no messages")
	}
}

func TestRunCtxDeadlineClassifiedAsCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := RunCtx(ctx, Config{Procs: 2, Timeout: 30 * time.Second}, pingPong)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	// The world's own Timeout must remain a distinct classification.
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("context deadline misclassified as world timeout: %v", err)
	}
}

// TestDeadlockIsImmediateHang: a world in which every rank blocks is a
// hang the scheduler sees at once, long before its watchdog would fire.
func TestDeadlockIsImmediateHang(t *testing.T) {
	start := time.Now()
	_, err := Run(Config{Procs: 4, Timeout: 30 * time.Second}, func(c *Comm) error {
		c.Recv((c.Rank()+1)%c.Size(), 99) // never sent
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("a deadlocked world took %v to fail", elapsed)
	}
}
