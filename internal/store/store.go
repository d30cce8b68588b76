// Package store implements the prediction service's durable result
// store: a content-addressed key/value store of JSON documents with a
// bounded in-memory LRU front and atomic-rename persistence.
//
// Keys are arbitrary strings — in practice faultsim campaign identities
// ("cid:v3/...") and prediction-request keys ("pred:v2/...").  Each entry
// lives at <dir>/<sha256(key)>.json inside an envelope that repeats the
// full key, so a (vanishingly unlikely) hash collision or a file copied
// between stores is detected and treated as a miss rather than served as
// a wrong result.  Writes go through a temp file and an atomic rename; a
// crash mid-write can therefore truncate only the temp file, never a
// committed entry, and a corrupt or partial file on disk is skipped (and
// counted) instead of failing the caller.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"resmod/internal/faultsim"
)

// DefaultMaxEntries is the LRU capacity used when Config.MaxEntries is
// zero.
const DefaultMaxEntries = 256

// Config tunes a Store.
type Config struct {
	// Dir is the persistence directory.  Empty means memory-only: entries
	// live solely in the LRU and die with the process.
	Dir string
	// MaxEntries bounds the in-memory LRU (default DefaultMaxEntries).
	// Eviction drops an entry from memory only; its file, when Dir is
	// set, remains and re-populates the LRU on the next Get.
	MaxEntries int
}

// Stats are the store's monotonic operation counters, exported through
// the service's /metrics endpoint.
type Stats struct {
	// Hits and Misses count Get results (a disk hit is a hit).
	Hits   uint64
	Misses uint64
	// MemHits counts the subset of Hits served by the LRU alone.
	MemHits uint64
	// Puts counts successful writes, Evictions LRU drops, and Corrupt the
	// unreadable disk entries that were skipped.
	Puts      uint64
	Evictions uint64
	Corrupt   uint64
}

// entry is one LRU slot.
type entry struct {
	key  string
	data []byte
}

// Store is a content-addressed result store.  It is safe for concurrent
// use.
type Store struct {
	dir string
	max int

	mu    sync.Mutex
	lru   *list.List // front = most recent; values are *entry
	index map[string]*list.Element
	stats Stats
}

// Open creates a store.  When cfg.Dir is non-empty the directory is
// created; existing entries in it are served lazily on Get.
func Open(cfg Config) (*Store, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", cfg.Dir, err)
		}
	}
	return &Store{
		dir:   cfg.Dir,
		max:   cfg.MaxEntries,
		lru:   list.New(),
		index: make(map[string]*list.Element),
	}, nil
}

// Dir returns the persistence directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// path returns the content address of key: sha256 over the key bytes.
func (s *Store) path(key string) string {
	h := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(h[:])+".json")
}

// envelope is the on-disk record shape.
type envelope struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// Get returns the document stored under key.  The returned slice is
// shared — callers must not modify it.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.index[key]; ok {
		s.lru.MoveToFront(el)
		s.stats.Hits++
		s.stats.MemHits++
		data := el.Value.(*entry).data
		s.mu.Unlock()
		return data, true
	}
	s.mu.Unlock()

	if s.dir == "" {
		s.miss()
		return nil, false
	}
	raw, err := os.ReadFile(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		s.miss()
		return nil, false
	}
	if err != nil {
		s.corrupt()
		return nil, false
	}
	var env envelope
	// A partial or damaged file (failed unmarshal), or an envelope whose
	// key differs (hash collision, file copied from another store), is a
	// skip — never a fatal error and never a wrong answer.
	if err := json.Unmarshal(raw, &env); err != nil || env.Key != key || env.Data == nil {
		s.corrupt()
		return nil, false
	}

	s.mu.Lock()
	s.stats.Hits++
	s.insertLocked(key, env.Data)
	s.mu.Unlock()
	return env.Data, true
}

// KeyWithPrefix returns the key of the one entry on disk whose file name
// (the hex sha256 of its key) starts with prefix, once the key in its
// envelope hashes back to that name.  prefix becomes part of a glob
// pattern, so callers pass hex digits only.  None, several, or an
// unreadable file is a miss.
func (s *Store) KeyWithPrefix(prefix string) (string, bool) {
	if s.dir == "" {
		return "", false
	}
	found, _ := filepath.Glob(filepath.Join(s.dir, prefix+"*.json"))
	var env envelope
	if len(found) != 1 {
		return "", false
	}
	if raw, err := os.ReadFile(found[0]); err != nil || json.Unmarshal(raw, &env) != nil || s.path(env.Key) != found[0] {
		return "", false
	}
	return env.Key, true
}

// Put stores data (a JSON document) under key, replacing any previous
// entry, and persists it when the store has a directory.
func (s *Store) Put(key string, data []byte) error {
	if s.dir != "" {
		env, err := json.Marshal(envelope{Key: key, Data: data})
		if err != nil {
			return fmt.Errorf("store: marshaling %q: %w", key, err)
		}
		if err := faultsim.WriteFileAtomic(s.path(key), env); err != nil {
			return fmt.Errorf("store: writing %q: %w", key, err)
		}
	}
	s.mu.Lock()
	s.stats.Puts++
	s.insertLocked(key, append([]byte(nil), data...))
	s.mu.Unlock()
	return nil
}

// insertLocked adds or refreshes an LRU entry and evicts past capacity.
func (s *Store) insertLocked(key string, data []byte) {
	if el, ok := s.index[key]; ok {
		el.Value.(*entry).data = data
		s.lru.MoveToFront(el)
		return
	}
	s.index[key] = s.lru.PushFront(&entry{key: key, data: data})
	for s.lru.Len() > s.max {
		last := s.lru.Back()
		s.lru.Remove(last)
		delete(s.index, last.Value.(*entry).key)
		s.stats.Evictions++
	}
}

// GetJSON unmarshals the document under key into v.
func (s *Store) GetJSON(key string, v any) bool {
	data, ok := s.Get(key)
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		s.corrupt()
		return false
	}
	return true
}

// PutJSON marshals v and stores it under key.
func (s *Store) PutJSON(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshaling %q: %w", key, err)
	}
	return s.Put(key, data)
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) miss() {
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
}

func (s *Store) corrupt() {
	s.mu.Lock()
	s.stats.Misses++
	s.stats.Corrupt++
	s.mu.Unlock()
}
