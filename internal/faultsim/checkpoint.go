package faultsim

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"resmod/internal/stats"
)

// CheckpointVersion is the current snapshot schema version.
const CheckpointVersion = 1

// ErrCheckpointMismatch reports that a checkpoint does not belong to the
// campaign trying to resume from it (different Identity) or is internally
// inconsistent.
var ErrCheckpointMismatch = errors.New("faultsim: checkpoint does not match campaign")

// Checkpoint is the JSON snapshot of a partially executed campaign: the
// set of completed trials plus every tally the final Summary is built
// from.  All tallies are integer counts merged commutatively, so restoring
// a snapshot and running only the remaining trials produces a Summary
// bit-identical to an uninterrupted run — each trial's RNG stream depends
// only on (Seed, trial index), never on execution order.
//
// Abnormal trials are deliberately *not* in Done: a resumed campaign
// re-attempts them, giving transient harness faults a second chance.
type Checkpoint struct {
	// Version is the schema version (CheckpointVersion).
	Version int
	// Identity is the owning campaign's Campaign.Identity().
	Identity string
	// Trials is the campaign's configured trial count.
	Trials int
	// Done is the completed-trial bitmap: trial t is done iff
	// Done[t/64]>>(t%64)&1 == 1.
	Done []uint64
	// Completed is the number of set bits in Done.
	Completed uint64
	// Success, SDC and Failure are the outcome tallies over Done trials.
	Success uint64
	SDC     uint64
	Failure uint64
	// Hist is the contamination histogram counts (bin x-1 = x ranks).
	Hist []uint64
	// ByContamination holds the outcome counters conditioned on
	// contamination count.
	ByContamination map[int]stats.Counter
	// Spread is the SpreadByDistance tally.
	Spread []uint64
	// Fired is the total fired-injection count over Done trials.
	Fired uint64
}

// snapshot captures the aggregate as a Checkpoint under the lock.
func (a *aggregate) snapshot(identity string) *Checkpoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	ck := &Checkpoint{
		Version:         CheckpointVersion,
		Identity:        identity,
		Trials:          a.trials,
		Done:            append([]uint64(nil), a.done...),
		Completed:       a.completed,
		Success:         a.counter.Success,
		SDC:             a.counter.SDC,
		Failure:         a.counter.Failure,
		Hist:            append([]uint64(nil), a.hist...),
		ByContamination: make(map[int]stats.Counter, len(a.byCont)),
		Spread:          append([]uint64(nil), a.spread...),
		Fired:           a.fired,
	}
	for x, bc := range a.byCont {
		ck.ByContamination[x] = *bc
	}
	return ck
}

// SaveCheckpoint atomically writes the snapshot to path: the JSON is
// written to a temporary file in the same directory and renamed into
// place, so a crash mid-write can never corrupt an existing snapshot.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	data, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		return fmt.Errorf("faultsim: marshaling checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("faultsim: creating checkpoint temp file: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("faultsim: writing checkpoint: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("faultsim: committing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a snapshot written by SaveCheckpoint.  A missing
// file returns an error wrapping os.ErrNotExist.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultsim: reading checkpoint: %w", err)
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("faultsim: parsing checkpoint %s: %w", path, err)
	}
	return ck, nil
}
