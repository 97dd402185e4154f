package dialect

import (
	"sync"
	"testing"
)

// builtState reports which built-in dialects have been built. Reading
// it races with nothing: the tests call it with no Get in flight.
func builtState() []bool {
	out := make([]bool, len(builtins))
	for i := range builtins {
		out[i] = builtins[i].d != nil
	}
	return out
}

// TestNamesAndRegisterBuildNothing: listing dialects builds none, and
// Register rejects a built-in's name whether or not it has been built,
// without building it.
func TestNamesAndRegisterBuildNothing(t *testing.T) {
	before := builtState()
	names := Names()
	for i := range builtins {
		if !contains(names, builtins[i].name) {
			t.Errorf("Names() misses built-in %q", builtins[i].name)
		}
		if err := Register(&Dialect{Name: builtins[i].name}); err == nil {
			t.Errorf("Register took built-in name %q", builtins[i].name)
		}
	}
	after := builtState()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("Names or Register built %q", builtins[i].name)
		}
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// TestGetConcurrent: concurrent first Gets of every built-in dialect are
// race-free and all return the one pointer later Gets return too.
func TestGetConcurrent(t *testing.T) {
	const workers = 8
	got := make([][]*Dialect, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range builtins {
				d, err := Get(builtins[i].name)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], d)
			}
		}(w)
	}
	wg.Wait()
	for i := range builtins {
		want := MustGet(builtins[i].name)
		if want.Name != builtins[i].name || want.Faults == nil {
			t.Fatalf("%s: built dialect is %q with faults %v", builtins[i].name, want.Name, want.Faults)
		}
		for w := 0; w < workers; w++ {
			if len(got[w]) != len(builtins) {
				t.Fatalf("worker %d got %d dialects", w, len(got[w]))
			}
			if got[w][i] != want {
				t.Errorf("%s: worker %d got another pointer", builtins[i].name, w)
			}
		}
	}
}
