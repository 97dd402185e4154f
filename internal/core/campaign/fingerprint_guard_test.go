package campaign

import (
	"reflect"
	"testing"
	"time"

	"sqlancerpp/internal/chaos"
	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/coverage"
	"sqlancerpp/internal/dialect"
)

// TestFingerprintExclusionsAreRealFields is the runtime half of the
// exclusion list's guard (the keyed Config literal in checkpoint.go is
// the compile-time half, and the sqlint fingerprint analyzer closes the
// exhaustiveness direction): every fingerprintExcluded key must name an
// actual Config field, and every reason must be non-empty.
func TestFingerprintExclusionsAreRealFields(t *testing.T) {
	ct := reflect.TypeOf(Config{})
	for name, reason := range fingerprintExcluded {
		if _, ok := ct.FieldByName(name); !ok {
			t.Errorf("fingerprintExcluded names %q, which is not a Config field", name)
		}
		if reason == "" {
			t.Errorf("fingerprintExcluded[%q] has no reason", name)
		}
	}
}

// TestFingerprintInsensitiveToExcludedFields proves each exclusion is
// behaviorally real: perturbing an excluded field must not change the
// fingerprint (that is what lets a chaos-free, timeout-free -resume
// recover a chaos-interrupted run), while perturbing a rendered field
// must change it.
func TestFingerprintInsensitiveToExcludedFields(t *testing.T) {
	base := Config{Dialect: dialect.MustGet("sqlite"), Seed: 7}.withDefaults()
	fp := fingerprint(base)

	perturb := map[string]func(*Config){
		"Policy":      func(c *Config) { c.Policy = gen.AllowAll{} },
		"BatchSize":   func(c *Config) { c.BatchSize = base.BatchSize + 33 },
		"CaseTimeout": func(c *Config) { c.CaseTimeout = 5 * time.Second },
		"Chaos": func(c *Config) {
			in, err := chaos.Parse("shard-error=1", 1)
			if err != nil {
				t.Fatalf("chaos.Parse: %v", err)
			}
			c.Chaos = in
		},
		"Coverage": func(c *Config) { c.Coverage = coverage.NewRecorder() },
	}
	for name := range fingerprintExcluded {
		f, ok := perturb[name]
		if !ok {
			t.Errorf("no perturbation for excluded field %s: extend this test", name)
			continue
		}
		cfg := base
		f(&cfg)
		if got := fingerprint(cfg); got != fp {
			t.Errorf("fingerprint is sensitive to excluded field %s:\n  base %s\n  got  %s",
				name, fp, got)
		}
	}
	for name := range perturb {
		if _, ok := fingerprintExcluded[name]; !ok {
			t.Errorf("perturbation for %s has no matching exclusion", name)
		}
	}

	cfg := base
	cfg.Seed = 8
	if fingerprint(cfg) == fp {
		t.Error("fingerprint is insensitive to Seed, a rendered field")
	}
}
