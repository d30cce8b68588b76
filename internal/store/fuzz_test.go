package store

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzStoreGet: whatever bytes sit at a key's content address, Get never
// panics, serves them only when they are an envelope naming that key (and
// then serves its data), and counts every refusal as a corrupt entry.
func FuzzStoreGet(f *testing.F) {
	for _, raw := range []string{
		`{"key":"cid:v3/k","data":{"v":1}}`,
		`{"key":"cid:v3/other","data":{"v":1}}`,
		`{"key":"cid:v3/k","data":null}`,
		`{"key":"cid:v3/k"}`,
		`{"key":"cid:v3/k","da`,
		"\x00\x01garbage",
		"",
	} {
		f.Add("cid:v3/k", []byte(raw))
	}
	// One directory for every input; each opens a fresh Store, whose empty
	// LRU sends its Get to the file the input has just written.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, key string, raw []byte) {
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.path(key), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		st := s.Stats()
		if !ok {
			if st.Corrupt != 1 || st.Misses != 1 || st.Hits != 0 {
				t.Fatalf("a refused entry counted as %+v", st)
			}
			return
		}
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Key != key || !bytes.Equal(got, env.Data) {
			t.Fatalf("served %q for key %q from %q", got, key, raw)
		}
		if st.Corrupt != 0 || st.Hits != 1 {
			t.Fatalf("a served entry counted as %+v", st)
		}
	})
}
