package campaign

import (
	"testing"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
)

// TestCoveringSwapFaultFound: a seeded campaign over a SQLite-family
// dialect carrying only the CoveringIndexProjSwap defect reports at
// least one logic bug attributed to it, with zero false positives. The
// generator's composite indexes and sargable predicates must therefore
// reach the index-only serving path.
func TestCoveringSwapFaultFound(t *testing.T) {
	const name = "coverswap"
	d := dialect.MustGet("sqlite").Clone()
	d.Name = name
	d.Faults = faults.NewSet([]faults.Fault{
		{ID: name + "-f", Dialect: name, Class: faults.Logic, Kind: faults.CoveringIndexProjSwap},
	})
	r, err := New(Config{Dialect: d, Mode: Adaptive, TestCases: 6000, Seed: 2, KeepAllCases: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FalsePositives != 0 {
		t.Fatalf("%d false positives: the covering path is unsound", rep.FalsePositives)
	}
	attributed := 0
	for _, b := range rep.AllCases {
		if b.Class != ClassLogic {
			continue
		}
		for _, id := range b.Triggered {
			if id == name+"-f" {
				attributed++
			}
		}
	}
	if attributed == 0 {
		t.Errorf("no logic bug attributed (detected=%d)", rep.Detected)
	}
}
