package faultsim

// DefaultProgressDivisor sets the default snapshot cadence: a campaign
// publishes roughly this many live-progress snapshots over its lifetime
// (minimum one trial between snapshots).
const DefaultProgressDivisor = 100

// progressEvery resolves the snapshot period in trials.
func progressEvery(c Campaign) uint64 {
	every := c.Trials / DefaultProgressDivisor
	if every < 1 {
		every = 1
	}
	return uint64(every)
}

// noteRetried counts one abnormal-trial retry for live snapshots (the
// Sink counts the same event process-wide).
func (a *aggregate) noteRetried() {
	a.mu.Lock()
	a.retried++
	a.mu.Unlock()
}
