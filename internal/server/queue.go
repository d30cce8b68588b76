package server

import (
	"fmt"
	"sync"
)

// Job priorities.  The queue dequeues strictly by priority (FIFO within
// one level), so a high-priority arrival preempts every *queued*
// lower-priority job — running jobs are never interrupted, preserving
// the determinism and cache contracts of the engine underneath.
const (
	PrioLow    = 0
	PrioNormal = 1
	PrioHigh   = 2
)

// priorityNames maps wire values ("priority" on POST /v1/predictions)
// to queue levels.  The empty string is normal: requests that never
// heard of priorities behave exactly as before.
var priorityNames = map[string]int{
	"":       PrioNormal,
	"low":    PrioLow,
	"normal": PrioNormal,
	"high":   PrioHigh,
}

// parsePriority maps the request field to a queue level.
func parsePriority(s string) (int, error) {
	p, ok := priorityNames[s]
	if !ok {
		return 0, fmt.Errorf(`unknown priority %q (want "low", "normal" or "high")`, s)
	}
	return p, nil
}

// priorityName renders a queue level back to its wire value.
func priorityName(p int) string {
	switch p {
	case PrioLow:
		return "low"
	case PrioHigh:
		return "high"
	default:
		return "normal"
	}
}

// tenantRing is one priority level's storage: a FIFO per tenant plus a
// round-robin ring over the tenants that currently have queued jobs.
// Dequeueing rotates across tenants, so one tenant's burst of N jobs
// can no longer monopolize a level — other tenants' work interleaves —
// while each tenant's own jobs still start in submission order.
type tenantRing struct {
	queues map[string][]*job
	order  []string // tenants with queued jobs, in ring order
	next   int      // ring cursor: the tenant whose turn is next
	size   int
}

// push appends the job to its tenant's FIFO, adding the tenant at the
// end of the ring when it had nothing queued (existing tenants keep
// their places, so a rejoining tenant waits a full rotation).
func (r *tenantRing) push(j *job) {
	if r.queues == nil {
		r.queues = make(map[string][]*job)
	}
	q := r.queues[j.tenant]
	if len(q) == 0 {
		r.order = append(r.order, j.tenant)
	}
	r.queues[j.tenant] = append(q, j)
	r.size++
}

// pop removes the head of the cursor tenant's FIFO and advances the
// ring.  Returns nil when the level is empty.
func (r *tenantRing) pop() *job {
	if r.size == 0 {
		return nil
	}
	if r.next >= len(r.order) {
		r.next = 0
	}
	t := r.order[r.next]
	q := r.queues[t]
	j := q[0]
	q[0] = nil
	q = q[1:]
	r.size--
	if len(q) == 0 {
		delete(r.queues, t)
		r.order = append(r.order[:r.next], r.order[r.next+1:]...)
	} else {
		r.queues[t] = q
		r.next++
	}
	if r.next >= len(r.order) {
		r.next = 0
	}
	return j
}

// remove unlinks a specific queued job (promotion), preserving the
// ring positions of everyone else.
func (r *tenantRing) remove(j *job) bool {
	q := r.queues[j.tenant]
	for i, x := range q {
		if x != j {
			continue
		}
		copy(q[i:], q[i+1:])
		q[len(q)-1] = nil
		q = q[:len(q)-1]
		r.size--
		if len(q) == 0 {
			delete(r.queues, j.tenant)
			for k, t := range r.order {
				if t == j.tenant {
					r.order = append(r.order[:k], r.order[k+1:]...)
					if r.next > k {
						r.next--
					}
					break
				}
			}
			if r.next >= len(r.order) {
				r.next = 0
			}
		} else {
			r.queues[j.tenant] = q
		}
		return true
	}
	return false
}

// jobQueue is the scheduler's bounded priority queue: three levels
// under one lock, with a condition variable waking idle workers.
// Dequeue order is strictly by priority; *within* a level, tenants
// round-robin (FIFO per tenant) so no tenant's burst starves another
// at the same priority.  A queued job can still be promoted in place
// when a duplicate submission arrives with a higher priority.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	closed bool
	levels [3]tenantRing
}

func newJobQueue(capacity int) *jobQueue {
	q := &jobQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job at the given priority.  It fails when the queue is
// saturated (the caller sheds with 429) or closed (the caller answers
// 503: the server is draining).
func (q *jobQueue) push(j *job, prio int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.depthLocked() >= q.cap {
		return false
	}
	q.levels[prio].push(j)
	q.cond.Signal()
	return true
}

// pop blocks until a job is available and returns one from the highest
// non-empty priority level (round-robin across tenants within it).  ok
// is false once the queue is closed — immediately, even with jobs still
// queued, because a draining server must stop starting new work (Close
// cancels the leftovers via drain).
func (q *jobQueue) pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil, false
		}
		for lvl := PrioHigh; lvl >= PrioLow; lvl-- {
			if j := q.levels[lvl].pop(); j != nil {
				return j, true
			}
		}
		q.cond.Wait()
	}
}

// promote moves a queued job to a higher priority level and records the
// new level on the job, returning whether it was found still queued.
// Already-running (or finished) jobs are left alone — preemption never
// touches running work.
func (q *jobQueue) promote(j *job, prio int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for lvl := PrioLow; lvl < prio; lvl++ {
		if q.levels[lvl].remove(j) {
			q.levels[prio].push(j)
			j.setPriority(prio)
			return true
		}
	}
	return false
}

// close wakes every blocked pop with ok=false.  Queued jobs stay in
// place for drain to collect.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// drain removes and returns everything still queued (any priority), in
// the order pop would have served it.
func (q *jobQueue) drain() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*job
	for lvl := PrioHigh; lvl >= PrioLow; lvl-- {
		for {
			j := q.levels[lvl].pop()
			if j == nil {
				break
			}
			out = append(out, j)
		}
	}
	return out
}

// depth is the number of queued jobs across all priorities.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depthLocked()
}

func (q *jobQueue) depthLocked() int {
	return q.levels[PrioLow].size + q.levels[PrioNormal].size + q.levels[PrioHigh].size
}
