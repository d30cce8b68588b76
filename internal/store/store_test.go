package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"resmod/internal/apps/pennant"
	"resmod/internal/faultsim"
	"resmod/internal/stats"
)

func open(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	if err := s.Put("k1", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k1"); !ok || !bytes.Equal(got, []byte(`{"v":1}`)) {
		t.Fatalf("Get = %q, %v", got, ok)
	}

	// A fresh store over the same directory (a restarted process) serves
	// the entry from disk.
	s2 := open(t, Config{Dir: dir})
	got, ok := s2.Get("k1")
	if !ok || !bytes.Equal(got, []byte(`{"v":1}`)) {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	st := s2.Stats()
	if st.Hits != 1 || st.MemHits != 0 {
		t.Fatalf("disk hit miscounted: %+v", st)
	}
	if _, ok := s2.Get("absent"); ok {
		t.Fatal("absent key found")
	}
	if s2.Stats().Misses != 1 {
		t.Fatalf("miss not counted: %+v", s2.Stats())
	}
}

func TestLRUEviction(t *testing.T) {
	// Memory-only store: eviction is loss.
	mem := open(t, Config{MaxEntries: 2})
	for i := 1; i <= 3; i++ {
		if err := mem.Put(fmt.Sprintf("k%d", i), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if mem.Len() != 2 {
		t.Fatalf("LRU holds %d entries, want 2", mem.Len())
	}
	if _, ok := mem.Get("k1"); ok {
		t.Fatal("oldest entry survived eviction in a memory-only store")
	}
	if _, ok := mem.Get("k3"); !ok {
		t.Fatal("newest entry evicted")
	}
	if mem.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", mem.Stats().Evictions)
	}

	// Disk-backed store: eviction drops memory only; Get re-reads disk.
	disk := open(t, Config{Dir: t.TempDir(), MaxEntries: 2})
	for i := 1; i <= 3; i++ {
		if err := disk.Put(fmt.Sprintf("k%d", i), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := disk.Get("k1"); !ok {
		t.Fatal("evicted entry not recovered from disk")
	}
	// Recovery re-inserts k1, evicting the LRU tail again.
	if disk.Len() != 2 {
		t.Fatalf("LRU grew past capacity: %d", disk.Len())
	}

	// Accessing an entry refreshes its recency: k1 stays, k3 goes.
	lru := open(t, Config{MaxEntries: 2})
	_ = lru.Put("k1", []byte(`{}`))
	_ = lru.Put("k3", []byte(`{}`))
	lru.Get("k1")
	_ = lru.Put("k4", []byte(`{}`))
	if _, ok := lru.Get("k1"); !ok {
		t.Fatal("recently used entry evicted")
	}
}

func TestCorruptAndPartialFilesAreSkipped(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	if err := s.Put("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	path := s.path("k")

	for name, garbage := range map[string][]byte{
		"truncated": []byte(`{"key":"k","da`),
		"not-json":  []byte("\x00\x01garbage"),
		"empty":     nil,
	} {
		if err := os.WriteFile(path, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := open(t, Config{Dir: dir})
		if _, ok := fresh.Get("k"); ok {
			t.Fatalf("%s file served as a hit", name)
		}
		st := fresh.Stats()
		if st.Corrupt != 1 || st.Misses != 1 {
			t.Fatalf("%s file miscounted: %+v", name, st)
		}
	}

	// An envelope whose embedded key disagrees (copied from elsewhere,
	// or a hash collision) is also a miss.
	if err := os.WriteFile(path, []byte(`{"key":"other","data":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := open(t, Config{Dir: dir})
	if _, ok := fresh.Get("k"); ok {
		t.Fatal("foreign envelope served as a hit")
	}

	// A corrupt entry is repaired by the next Put.
	if err := fresh.Put("k", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	again := open(t, Config{Dir: dir})
	if got, ok := again.Get("k"); !ok || string(got) != `{"v":2}` {
		t.Fatalf("repaired entry = %q, %v", got, ok)
	}
}

// TestAtomicWriteLeavesNoTempFiles: repeated writes of one store entry,
// and of one checkpoint (the other caller of faultsim.WriteFileAtomic),
// leave exactly the committed file behind.
func TestAtomicWriteLeavesNoTempFiles(t *testing.T) {
	onlyFile := func(dir, want string) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != want {
			t.Fatalf("%s holds %v, want only %s", dir, ents, want)
		}
	}

	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	for i := 0; i < 10; i++ {
		if err := s.PutJSON("k", map[string]int{"v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.HasSuffix(s.path("k"), ".json") {
		t.Fatalf("unexpected content address %s", s.path("k"))
	}
	onlyFile(dir, filepath.Base(s.path("k")))

	ckDir := t.TempDir()
	for i := 0; i < 10; i++ {
		ck := &faultsim.Checkpoint{Version: faultsim.CheckpointVersion, Trials: i}
		if err := faultsim.SaveCheckpoint(filepath.Join(ckDir, "ck.json"), ck); err != nil {
			t.Fatal(err)
		}
	}
	onlyFile(ckDir, "ck.json")
}

func TestConcurrentAccess(t *testing.T) {
	s := open(t, Config{Dir: t.TempDir(), MaxEntries: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%16)
				if i%2 == 0 {
					if err := s.PutJSON(key, i); err != nil {
						t.Error(err)
						return
					}
				} else {
					var v int
					s.GetJSON(key, &v)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCampaignCache(t *testing.T) {
	st := open(t, Config{Dir: t.TempDir()})
	cache := CampaignCache{Store: st}

	id := "cid:v3/test/X/p1/t5/e1/r0/s1/pat0/tol1e-10"
	sum := &faultsim.Summary{
		Counts:          stats.Counter{Success: 4, SDC: 1},
		Hist:            &stats.Hist{Counts: []uint64{5}},
		ByContamination: map[int]*stats.Counter{1: {Success: 4, SDC: 1}},
		TrialsDone:      5,
	}
	sum.Rates = sum.Counts.Rates()

	if _, ok := cache.GetSummary(id); ok {
		t.Fatal("empty cache hit")
	}
	cache.PutSummary(id, sum)
	got, ok := cache.GetSummary(id)
	if !ok {
		t.Fatal("stored summary not found")
	}
	if got.Rates != sum.Rates || got.TrialsDone != 5 {
		t.Fatalf("restored %+v, want %+v", got.Rates, sum.Rates)
	}

	// Interrupted summaries must never be cached.
	interrupted := *sum
	interrupted.Interrupted = true
	cache.PutSummary("cid:v3/other", &interrupted)
	if _, ok := cache.GetSummary("cid:v3/other"); ok {
		t.Fatal("interrupted summary was cached")
	}
}

// TestCampaignCacheV2EntryIsMiss fills a store with the summary record a
// cid:v2 binary wrote for faultsim's contract campaign: it still decodes
// under its own key, but the campaign's current identity must miss it, so
// a store written before IdentityVersion 3 is recomputed, not served.
func TestCampaignCacheV2EntryIsMiss(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "faultsim", "testdata", "summary_record_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	const old = "cid:v2/PENNANT/leblanc/p4/t24/e1/r0/s8/pat0/tol1e-10"
	cache := CampaignCache{Store: open(t, Config{Dir: t.TempDir()})}
	if err := cache.Store.Put(old, data); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.GetSummary(old); !ok {
		t.Fatal("the v2 record no longer decodes under its own key")
	}
	c := faultsim.Campaign{App: pennant.App{}, Procs: 4, Trials: 24, Seed: 8}
	if id := c.Normalized().Identity(); id == old {
		t.Fatalf("identity %q is still the v2 key", id)
	} else if _, ok := cache.GetSummary(id); ok {
		t.Fatalf("the v2 record is served under %q", id)
	}
}

// TestKeyWithPrefix: the one entry whose file name starts with a prefix
// gives back its key.  No match, a prefix two entries share, a
// memory-only store and a file whose key does not hash to its name are
// misses.
func TestKeyWithPrefix(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	for _, k := range []string{"k1", "k2"} {
		if err := s.Put(k, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	name := filepath.Base(s.path("k1"))
	if key, ok := s.KeyWithPrefix(name[:16]); !ok || key != "k1" {
		t.Fatalf("KeyWithPrefix(%s) = %q, %v; want k1", name[:16], key, ok)
	}
	// Both names start with "" — and no name starts with "g".
	for _, prefix := range []string{"", "g"} {
		if key, ok := s.KeyWithPrefix(prefix); ok {
			t.Errorf("KeyWithPrefix(%q) = %q, want a miss", prefix, key)
		}
	}
	if key, ok := open(t, Config{}).KeyWithPrefix(name[:16]); ok {
		t.Errorf("memory-only KeyWithPrefix = %q, want a miss", key)
	}
	// k2's envelope copied under k1's name: the key no longer hashes to it.
	raw, err := os.ReadFile(s.path("k2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path("k1"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if key, ok := s.KeyWithPrefix(name[:16]); ok {
		t.Errorf("KeyWithPrefix over a copied file = %q, want a miss", key)
	}
}
