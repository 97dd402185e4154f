//go:build !race

// The race detector instruments allocation, so these counts only hold
// without it.

package gen

import (
	"reflect"
	"runtime"
	"testing"
)

// ownedObjects counts the heap objects reachable from v that a
// generated case owns: every distinct pointer (nodes, the OracleCase,
// LIMIT values) and every non-empty list, Features among them. Strings
// are not counted: the generator copies them from the schema model and
// its static tables. It also returns the path of a list whose capacity
// exceeds its length ("" when there is none), since a consumer's append
// would then write into memory the case shares.
func ownedObjects(v any) (n int, loose string) {
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			n++
			walk(v.Elem(), path)
		case reflect.Slice:
			if v.Cap() != v.Len() && loose == "" {
				loose = path
			}
			if v.Len() == 0 {
				return
			}
			n++
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		}
	}
	walk(reflect.ValueOf(v), "case")
	return n, loose
}

// TestOracleCaseAllocatesOnlyItsCase pins what generation allocates:
// GenOracleCase's heap objects are the case it returns, every list of
// which is made at its final length, plus the free-form predicate a
// bare sargable head replaces. Scopes, candidate lists and choice lists
// are the generator's reused scratch; what is left beyond the case is
// that scratch growing to its working size.
func TestOracleCaseAllocatesOnlyItsCase(t *testing.T) {
	const (
		setup = 30
		cases = 3000
		// maxExtra bounds the objects per case beyond the case and its
		// dropped predicate. One scratch allocation in a tenth of the
		// calls reaches it.
		maxExtra = 0.1
	)
	g := New(Config{Seed: 7, DepthInterval: 50})
	for i := 0; i < setup; i++ {
		if st := g.GenSetup(); st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	var before, after runtime.MemStats
	var mallocs, owned, dropped uint64
	looseCases := 0
	for i := 0; i < cases; i++ {
		runtime.ReadMemStats(&before)
		oc, drop := g.genOracleCase()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if oc == nil {
			continue
		}
		n, loose := ownedObjects(oc)
		owned += uint64(n)
		if loose != "" {
			if looseCases == 0 {
				t.Errorf("case %d: %s has spare capacity", i, loose)
			}
			looseCases++
		}
		if drop != nil {
			n, _ := ownedObjects(drop)
			dropped += uint64(n)
		}
	}
	if looseCases > 0 {
		t.Errorf("%d of %d cases hold a list with spare capacity", looseCases, cases)
	}
	if owned == 0 {
		t.Fatal("no oracle case was generated")
	}
	extra := (float64(mallocs) - float64(owned) - float64(dropped)) / cases
	t.Logf("per case: %.2f mallocs, %.2f owned by the case, %.2f by its dropped predicate, %.3f extra",
		float64(mallocs)/cases, float64(owned)/cases, float64(dropped)/cases, extra)
	if extra > maxExtra {
		t.Errorf("GenOracleCase allocates %.2f objects per case beyond the case it returns, want at most %.1f",
			extra, maxExtra)
	}
}
