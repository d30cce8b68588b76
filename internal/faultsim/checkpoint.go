package faultsim

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// Tally holds the counts over Done trials; its fields appear inline
	// in the JSON.
	Tally
	// Fired is the total fired-injection count over Done trials.
	Fired uint64
}

// snapshot captures the aggregate as a Checkpoint under the lock.
func (a *aggregate) snapshot(identity string) *Checkpoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	return &Checkpoint{
		Version:   CheckpointVersion,
		Identity:  identity,
		Trials:    a.trials,
		Done:      slices.Clone(a.done),
		Completed: a.completed,
		Tally:     a.tally.clone(),
		Fired:     a.fired,
	}
}

// SaveCheckpoint atomically writes the snapshot to path (WriteFileAtomic).
func SaveCheckpoint(path string, ck *Checkpoint) error {
	data, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		return fmt.Errorf("faultsim: marshaling checkpoint: %w", err)
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("faultsim: saving checkpoint: %w", err)
	}
	return nil
}

// WriteFileAtomic writes data to a temporary file beside path and renames
// it into place, so a crash mid-write can never corrupt an existing file;
// the temporary file is removed when any step fails.  Checkpoints and the
// result store's entries (internal/store) are both committed here — the
// tree's one seam for a fault-injecting filesystem.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
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
