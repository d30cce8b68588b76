package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer safe to read while the server goroutine
// writes log lines to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeFlagValidation: misconfigurations must fail before the
// listener binds, with a message naming the bad flag.
func TestServeFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-listen", "no-port-here"}, "-listen"},
		{[]string{"-listen", "host:notaport"}, "-listen"},
		{[]string{"-listen", "host:70000"}, "-listen"},
		{[]string{"-listen", "bad host:80"}, "-listen"},
		{[]string{"-workers", "0"}, "-workers"},
		{[]string{"-workers", "-3"}, "-workers"},
		{[]string{"-queue", "0"}, "-queue"},
		{[]string{"-cache", "-1"}, "-cache"},
		{[]string{"-trials", "0"}, "-trials"},
		{[]string{"-campaign-workers", "-1"}, "-campaign-workers"},
		{[]string{"-drain", "0s"}, "-drain"},
		{[]string{"-heartbeat-timeout", "2s"}, "needs -coordinator"},
		{[]string{"-coordinator", "-shards-per-worker", "2"}, "not defined: -shards-per-worker"},
		{[]string{"-api-keys", "k:t", "-api-keys-file", "f"}, "mutually exclusive"},
		{[]string{"-api-keys", "justakey"}, "KEY:TENANT"},
		{[]string{"-api-keys", "k:anon"}, "reserved"},
		{[]string{"-api-keys", "k:a,k:b"}, "twice"},
		{[]string{"-api-keys-file", "/does/not/exist"}, "-api-keys-file"},
		{[]string{"-tenant-rate", "-1"}, "-tenant-rate"},
		{[]string{"-tenant-burst", "-1"}, "-tenant-burst"},
		{[]string{"-tenant-inflight", "-1"}, "-tenant-inflight"},
		{[]string{"-anon-rate", "-0.5"}, "-anon-rate"},
		{[]string{"-anon-inflight", "-2"}, "-anon-inflight"},
		{[]string{"extra", "positional"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		var out, errw bytes.Buffer
		err := run(context.Background(), append([]string{"serve"}, tc.args...), &out, &errw)
		if err == nil {
			t.Errorf("serve %v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("serve %v error %q does not name %q", tc.args, err, tc.want)
		}
	}
}

// TestAPIKeysFile pins the key-file grammar: comments and blanks skipped,
// KEY:TENANT per line, parsed into the same map as the inline flag.
func TestAPIKeysFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys")
	content := "# production keys\n\nalpha-key:team-alpha\nbeta-key:team-beta\n"
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	keys, err := loadAPIKeysFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"alpha-key": "team-alpha", "beta-key": "team-beta"}
	if len(keys) != len(want) || keys["alpha-key"] != "team-alpha" || keys["beta-key"] != "team-beta" {
		t.Fatalf("loadAPIKeysFile = %v, want %v", keys, want)
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, []byte("# nothing\n\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadAPIKeysFile(empty); err == nil {
		t.Fatal("comment-only key file accepted")
	}
}

// TestServeBootAndShutdown boots the service on an ephemeral port and
// confirms a canceled context exits cleanly (exit 0 path).
func TestServeBootAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var out bytes.Buffer
	var errw syncBuffer
	go func() {
		done <- run(ctx, []string{"serve", "-listen", "127.0.0.1:0",
			"-trials", "5", "-drain", "5s", "-store", t.TempDir()}, &out, &errw)
	}()
	// Wait for the bind log line, then trigger shutdown.
	deadline := time.After(10 * time.Second)
	for !strings.Contains(errw.String(), "serving on") {
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v\nstderr: %s", err, errw.String())
		case <-deadline:
			t.Fatalf("server never bound\nstderr: %s", errw.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve shutdown: %v\nstderr: %s", err, errw.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("serve did not drain\nstderr: %s", errw.String())
	}
	if !strings.Contains(errw.String(), "drained cleanly") {
		t.Fatalf("no clean-drain log\nstderr: %s", errw.String())
	}
}
