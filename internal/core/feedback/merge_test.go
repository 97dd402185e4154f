package feedback

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"sqlancerpp/internal/feature"
)

// trackerOp is one recorded statement: its feature set, outcome and
// kind.
type trackerOp struct {
	set     feature.Set
	ok, ddl bool
}

// randomOps draws n query and DDL records over a few features of
// universe, with success rates that leave some features condemned.
func randomOps(rng *rand.Rand, universe []feature.ID, n int) []trackerOp {
	ops := make([]trackerOp, n)
	for i := range ops {
		op := &ops[i]
		for k := 1 + rng.Intn(4); k > 0; k-- {
			op.set.Add(universe[rng.Intn(len(universe))])
		}
		op.ddl = rng.Intn(3) == 0
		op.ok = rng.Intn(4) == 0
	}
	return ops
}

// replay builds a tracker from ops with a short update interval and a
// low DDL cutoff, so both rules mark features unsupported.
func replay(ops []trackerOp) *Tracker {
	t := New(WithThreshold(0.05), WithUpdateInterval(7), WithDDLMaxFailures(3))
	for i := range ops {
		if ops[i].ddl {
			t.RecordDDLSet(&ops[i].set, ops[i].ok)
		} else {
			t.RecordQuerySet(&ops[i].set, ops[i].ok)
		}
	}
	return t
}

func mustSave(t *testing.T, tr *Tracker) []byte {
	t.Helper()
	data, err := tr.Save()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// randomUniverse draws a few feature IDs, so that the trackers of one
// trial share some features and not others.
func randomUniverse(rng *rand.Rand) []feature.ID {
	u := make([]feature.ID, 3+rng.Intn(10))
	for i := range u {
		u[i] = feature.ID(rng.Intn(feature.NumIDs))
	}
	return u
}

// mergedSnapshot is the reference merge of two saved states, folded by
// hand: counts add, DDL flags OR, streaks take their maximum, and the
// feature and unsupported sets union.
func mergedSnapshot(t *testing.T, a, b []byte) []byte {
	t.Helper()
	var sa, sb snapshot
	if err := json.Unmarshal(a, &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sb); err != nil {
		t.Fatal(err)
	}
	for name, st := range sb.Stats {
		dst := sa.Stats[name]
		if dst == nil {
			sa.Stats[name] = st
			continue
		}
		dst.N += st.N
		dst.Y += st.Y
		dst.DDL = dst.DDL || st.DDL
		dst.ConsecFail = max(dst.ConsecFail, st.ConsecFail)
	}
	u, err := feature.SetOf(append(sa.Unsupported, sb.Unsupported...))
	if err != nil {
		t.Fatal(err)
	}
	if sa.Unsupported = nil; !u.Empty() {
		sa.Unsupported = u.Names()
	}
	data, err := json.MarshalIndent(sa, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTrackerMergeMatchesMergeState: folding a tracker in gives the same
// saved state as folding in its saved state, and as the reference merge
// of the two saved states, and leaves the update cadence alone.
func TestTrackerMergeMatchesMergeState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		universe := randomUniverse(rng)
		opsA := randomOps(rng, universe, rng.Intn(120))
		b := replay(randomOps(rng, universe, rng.Intn(120)))

		typed, viaBytes := replay(opsA), replay(opsA)
		want := mergedSnapshot(t, mustSave(t, typed), mustSave(t, b))
		updates := typed.Updates()
		typed.Merge(b)
		if err := viaBytes.MergeState(mustSave(t, b)); err != nil {
			t.Fatal(err)
		}
		if got, fromBytes := mustSave(t, typed), mustSave(t, viaBytes); !bytes.Equal(got, fromBytes) || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Merge saves\n%s\nMergeState saves\n%s\nthe reference merge is\n%s", trial, got, fromBytes, want)
		}
		if typed.Updates() != updates {
			t.Fatalf("trial %d: Merge ran %d posterior updates", trial, typed.Updates()-updates)
		}
	}
}

// TestPairTrackerMergeMatchesMergeState: unioning a pair tracker in gives
// the same saved state as unioning in its saved state, and the merged
// tracker shares no set with the source.
func TestPairTrackerMergeMatchesMergeState(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	specs := []string{"noindex", "perm:1,0", "rel:t=scan", "swap"}
	random := func(n int, shapes uint64) *PairTracker {
		p := NewPairTracker()
		for ; n > 0; n-- {
			p.Mark(uint64(rng.Int63n(int64(shapes))), specs[rng.Intn(len(specs))])
		}
		return p
	}
	mustSaveState := func(p *PairTracker) []byte {
		data, err := p.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for trial := 0; trial < 200; trial++ {
		shapes := uint64(1 + rng.Intn(12))
		typed := random(rng.Intn(30), shapes)
		viaBytes := NewPairTracker()
		if err := viaBytes.LoadState(mustSaveState(typed)); err != nil {
			t.Fatal(err)
		}
		o := random(rng.Intn(30), shapes)
		state := mustSaveState(o)

		typed.Merge(o)
		if err := viaBytes.MergeState(state); err != nil {
			t.Fatal(err)
		}
		if got, want := mustSaveState(typed), mustSaveState(viaBytes); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Merge saves\n%s\nMergeState saves\n%s", trial, got, want)
		}
		for shape := range o.seen {
			typed.Mark(shape, "fresh")
		}
		if !bytes.Equal(mustSaveState(o), state) {
			t.Fatalf("trial %d: marking the merged tracker changed the source", trial)
		}
	}
}

// TestTrackerDiscount: Discount subtracts times copies of the prior's
// counts from the features the tracker knows, flooring at zero, and
// changes nothing else: not the features it does not know, the DDL
// flags, the failure streaks or the unsupported set. The reference edits
// the tracker's saved state by hand.
func TestTrackerDiscount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	skipped, floored := 0, 0
	for trial := 0; trial < 300; trial++ {
		universe := randomUniverse(rng)
		tr := replay(randomOps(rng, universe, rng.Intn(120)))
		prior := replay(randomOps(rng, universe, rng.Intn(60)))
		times := rng.Intn(5) - 1

		var want, pri snapshot
		if err := json.Unmarshal(mustSave(t, tr), &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(mustSave(t, prior), &pri); err != nil {
			t.Fatal(err)
		}
		for name, p := range pri.Stats {
			st := want.Stats[name]
			if st == nil {
				skipped++
				continue
			}
			if times > 0 {
				if st.N < times*p.N {
					floored++
				}
				st.N = max(st.N-times*p.N, 0)
				st.Y = max(st.Y-times*p.Y, 0)
			}
		}
		wantData, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}

		tr.Discount(prior, times)
		if got := mustSave(t, tr); !bytes.Equal(got, wantData) {
			t.Fatalf("trial %d: Discount(times=%d) saves\n%s\nwant\n%s", trial, times, got, wantData)
		}
	}
	if skipped == 0 || floored == 0 {
		t.Fatalf("the trials skipped %d unknown features and floored %d counts; both must happen", skipped, floored)
	}
}

// TestPairStateKeysSpellingOneShapeUnion: a snapshot whose keys spell one
// shape two ways loads, and merges, the union of their specs.
func TestPairStateKeysSpellingOneShapeUnion(t *testing.T) {
	state := []byte(`{"pairs":{"ff":["noindex"],"00000000000000ff":["swap"]}}`)
	loaded, merged := NewPairTracker(), NewPairTracker()
	if err := loaded.LoadState(state); err != nil {
		t.Fatal(err)
	}
	if err := merged.MergeState(state); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*PairTracker{loaded, merged} {
		if !p.Seen(0xff, "noindex") || !p.Seen(0xff, "swap") || p.Pairs() != 2 {
			t.Fatalf("tracker holds %d pairs, want both specs of shape ff", p.Pairs())
		}
	}
}
