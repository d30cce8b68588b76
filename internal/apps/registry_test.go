package apps

import (
	"strings"
	"testing"
)

type namedFake struct {
	fakeApp
	name string
}

func (n namedFake) Name() string { return n.name }

// register adds a to the global registry for the test's duration, so the
// test can run again in one process (-count).
func register(t *testing.T, a App) {
	Register(a)
	t.Cleanup(func() {
		regMu.Lock()
		defer regMu.Unlock()
		delete(registry, a.Name())
	})
}

func TestRegistryLookupAndNames(t *testing.T) {
	register(t, namedFake{name: "zz-test-app"})
	a, err := Lookup("zz-test-app")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "zz-test-app" {
		t.Fatalf("looked up %q", a.Name())
	}
	found := false
	for _, n := range Names() {
		if n == "zz-test-app" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered app missing from Names()")
	}
	if len(All()) != len(Names()) {
		t.Fatal("All() and Names() disagree")
	}
}

func TestRegistryUnknown(t *testing.T) {
	_, err := Lookup("definitely-not-registered")
	if err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("err = %v", err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	register(t, namedFake{name: "zz-dup-app"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(namedFake{name: "zz-dup-app"})
}
