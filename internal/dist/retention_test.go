package dist

import (
	"testing"
	"time"
)

// TestWorkerRetirement: a worker that stays silent past RetireAfter is
// removed from the roster entirely — not just marked dead — so its
// labeled metric series stop being exported.
func TestWorkerRetirement(t *testing.T) {
	pool := NewPool(PoolConfig{
		HeartbeatTimeout: 20 * time.Millisecond,
		RetireAfter:      80 * time.Millisecond,
	})
	id := pool.Register("w", "http://127.0.0.1:1")
	if !pool.Heartbeat(id) {
		t.Fatal("heartbeat for a registered worker rejected")
	}

	// Dead but not yet retired: still visible for the operator to see.
	time.Sleep(40 * time.Millisecond)
	if ws := pool.Workers(); len(ws) != 1 || ws[0].Alive {
		t.Fatalf("registry view before retirement = %+v, want one dead worker", ws)
	}

	// Past RetireAfter: gone from the roster and the counters.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(pool.Workers()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still in roster after RetireAfter: %+v", pool.Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := pool.Stats(); st.WorkersKnown != 0 || st.WorkersAlive != 0 {
		t.Fatalf("stats after retirement = %+v, want empty roster", st)
	}

	// A retired id cannot heartbeat back in; re-registration can.
	if pool.Heartbeat(id) {
		t.Fatal("heartbeat for a retired worker accepted")
	}
	pool.Register("w", "http://127.0.0.1:1")
	if ws := pool.Workers(); len(ws) != 1 || !ws[0].Alive {
		t.Fatalf("after re-register, registry view = %+v, want one live worker", ws)
	}
}

// TestRetireAfterDefault: leaving RetireAfter unset derives it from the
// heartbeat timeout, so short-lived blips never evict a worker.
func TestRetireAfterDefault(t *testing.T) {
	pool := NewPool(PoolConfig{HeartbeatTimeout: 50 * time.Millisecond})
	pool.Register("w", "http://127.0.0.1:1")
	time.Sleep(120 * time.Millisecond) // well past the timeout, well short of 12x
	if ws := pool.Workers(); len(ws) != 1 || ws[0].Alive {
		t.Fatalf("dead-but-recent worker = %+v, want still rostered", ws)
	}
}
