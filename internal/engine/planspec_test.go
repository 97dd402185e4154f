package engine

// Unit tests for the PlanSpec plan-control API: serialization round
// trips, per-relation and per-join forcing, prefix-width caps,
// forced-but-inapplicable fallback (degrade to a scan, never an error),
// join-order permutation, and the determinism and shape of
// EnumeratePlans.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// TestPlanSpecStringIsPinned pins the serialized form byte for byte:
// spec strings reach bug reports (Result.PlanSpec) and the reducer
// replays them, so rendering must not drift.
func TestPlanSpecStringIsPinned(t *testing.T) {
	for _, tc := range []struct {
		spec PlanSpec
		want string
	}{
		{PlanSpec{}, "auto"},
		{PlanSpec{Relations: map[string]RelSpec{}, Joins: map[int]JoinSpec{}}, "auto"},
		{PlanSpec{Joins: map[int]JoinSpec{3: {}}}, "auto"},
		{PlanSpec{DisableIndexPaths: true}, "noindex"},
		{PlanSpec{CoveringOff: true}, "nocover"},
		{PlanSpec{JoinPerm: []int{1, 0}}, "perm:1,0"},
		{PlanSpec{JoinPerm: []int{3, 1, 0, 2}}, "perm:3,1,0,2"},
		{PlanSpec{JoinPerm: []int{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}},
			"perm:11,10,9,8,7,6,5,4,3,2,1,0"},
		{PlanSpec{Relations: map[string]RelSpec{"t0": {Force: ForceScan}}}, "rel:t0=scan"},
		{PlanSpec{Relations: map[string]RelSpec{"t0": {Force: ForceScan, PrefixWidth: 2}}}, "rel:t0=scan"},
		{PlanSpec{Relations: map[string]RelSpec{"t0": {Force: ForceIndex, Index: "i3"}}}, "rel:t0=index(i3)"},
		{PlanSpec{Relations: map[string]RelSpec{"t0": {Force: ForceIndex, Index: "i3", PrefixWidth: 1}}},
			"rel:t0=index(i3)/w1"},
		{PlanSpec{Relations: map[string]RelSpec{"t0": {PrefixWidth: 12}}}, "rel:t0=auto/w12"},
		{PlanSpec{Relations: map[string]RelSpec{"t0": {}}}, "rel:t0=auto"},
		{PlanSpec{Relations: map[string]RelSpec{
			"b": {Force: ForceScan}, "a1": {Force: ForceIndex, Index: "ix"},
			"B": {PrefixWidth: 3}, "a": {}, "sub0": {Force: ForceScan},
		}}, "rel:B=auto/w3 rel:a=auto rel:a1=index(ix) rel:b=scan rel:sub0=scan"},
		{PlanSpec{Joins: map[int]JoinSpec{10: {ProbeOff: true}, 2: {ProbeOff: true}, 1: {}, 0: {ProbeOff: true}}},
			"join:0=probeoff join:2=probeoff join:10=probeoff"},
		{PlanSpec{
			DisableIndexPaths: true, JoinPerm: []int{2, 0, 1}, CoveringOff: true,
			Relations: map[string]RelSpec{"t1": {Force: ForceScan}, "t0": {Force: ForceIndex, Index: "i0", PrefixWidth: 2}},
			Joins:     map[int]JoinSpec{1: {ProbeOff: true}, 0: {ProbeOff: true}},
		}, "noindex perm:2,0,1 nocover rel:t0=index(i0)/w2 rel:t1=scan join:0=probeoff join:1=probeoff"},
	} {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestPlanSpecStringParseRoundTrip(t *testing.T) {
	specs := []PlanSpec{
		{},
		{DisableIndexPaths: true},
		{JoinPerm: []int{1, 0}},
		{JoinPerm: []int{2, 0, 1}},
		{Relations: map[string]RelSpec{"t": {Force: ForceScan}}},
		{Relations: map[string]RelSpec{"t": {Force: ForceIndex, Index: "i0"}}},
		{Relations: map[string]RelSpec{
			"a": {Force: ForceIndex, Index: "iab", PrefixWidth: 1},
			"b": {Force: ForceAuto, PrefixWidth: 2},
		}},
		{Joins: map[int]JoinSpec{0: {ProbeOff: true}, 2: {ProbeOff: true}}},
		{DisableIndexPaths: true, JoinPerm: []int{1, 0},
			Relations: map[string]RelSpec{"t": {Force: ForceScan}},
			Joins:     map[int]JoinSpec{1: {ProbeOff: true}}},
	}
	for _, spec := range specs {
		s := spec.String()
		back, err := ParsePlanSpec(s)
		if err != nil {
			t.Fatalf("ParsePlanSpec(%q): %v", s, err)
		}
		if back.String() != s {
			t.Errorf("round trip %q -> %q", s, back.String())
		}
	}
	if s := (PlanSpec{}).String(); s != "auto" {
		t.Errorf("zero spec renders %q, want auto", s)
	}
	for _, bad := range []string{
		"bogus", "rel:t", "rel:t=index()", "rel:t=magic", "rel:t=scan/w0",
		"join:x=probeoff", "join:1=magic", "join:-1=probeoff",
		"perm:", "perm:0", "perm:0,1", "perm:0,0", "perm:2,0", "perm:1,x",
		"swap",
	} {
		if _, err := ParsePlanSpec(bad); err == nil {
			t.Errorf("ParsePlanSpec(%q) must fail", bad)
		}
	}
	// CanonicalPerm trims trailing fixed points and maps identity to nil.
	if p := CanonicalPerm([]int{1, 0, 2, 3}); len(p) != 2 || p[0] != 1 || p[1] != 0 {
		t.Errorf("CanonicalPerm([1 0 2 3]) = %v, want [1 0]", p)
	}
	if p := CanonicalPerm([]int{0, 1, 2}); p != nil {
		t.Errorf("CanonicalPerm(identity) = %v, want nil", p)
	}
}

// planSpecTable builds a 256-row table with a composite index (a, b) and
// a single-column index (a): 16 distinct a-keys times 16 b-values.
func planSpecTable(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER, c TEXT)")
	for i := 0; i < 256; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'r%d')", i%16, (i/16)%16, i))
	}
	mustExec(t, db, "CREATE INDEX ia ON t (a)")
	mustExec(t, db, "CREATE INDEX iab ON t (a, b)")
}

func querySpec(t *testing.T, db *DB, spec PlanSpec, q string) (*Result, int64) {
	t.Helper()
	prev := db.PlanSpec()
	db.SetPlanSpec(spec)
	res, err := db.Query(q)
	db.SetPlanSpec(prev)
	if err != nil {
		t.Fatalf("%s under [%s]: %v", q, spec.String(), err)
	}
	return res, db.LastCost()
}

func parseSelectStmt(t *testing.T, q string) *sqlast.Select {
	t.Helper()
	stmt, err := sqlparse.Shared().Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	sel, ok := stmt.(*sqlast.Select)
	if !ok {
		t.Fatalf("%s: not a SELECT", q)
	}
	return sel
}

func multisetOf(res *Result) map[string]int {
	m := map[string]int{}
	for _, r := range res.RenderRows() {
		m[r]++
	}
	return m
}

func equalMultisets(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestPlanSpecForcingChangesCostNotRows: every forcing axis must leave
// the result multiset untouched on a clean engine while provably taking
// a different plan (observable through LastCost).
func TestPlanSpecForcingChangesCostNotRows(t *testing.T) {
	db := openPlanDB(t)
	planSpecTable(t, db)
	const q = "SELECT * FROM t WHERE a = 7 AND b = 3"

	base, autoCost := querySpec(t, db, PlanSpec{}, q)
	_, fullCost := querySpec(t, db, PlanSpec{DisableIndexPaths: true}, q)
	// Reference costs: the composite span touches 1/16 of the leading
	// span, which touches 1/16 of the full scan.
	if autoCost*16 > fullCost {
		t.Fatalf("auto plan should use the composite span: cost %d vs full %d", autoCost, fullCost)
	}
	leadCost := autoCost * 16 // 16 rows in the a=7 group vs 1 composite hit
	for _, tc := range []struct {
		spec     PlanSpec
		wantCost int64
	}{
		{PlanSpec{Relations: map[string]RelSpec{"t": {Force: ForceScan}}}, fullCost},
		// Forcing the single-column index probes the whole a=7 group.
		{PlanSpec{Relations: map[string]RelSpec{"t": {Force: ForceIndex, Index: "ia"}}}, leadCost},
		// Width-capping the composite index to its leading column is the
		// same leading-only plan through the other store.
		{PlanSpec{Relations: map[string]RelSpec{"t": {Force: ForceIndex, Index: "iab", PrefixWidth: 1}}}, leadCost},
		// An auto plan under a width cap also degrades to leading-only.
		{PlanSpec{Relations: map[string]RelSpec{"t": {PrefixWidth: 1}}}, leadCost},
	} {
		res, cost := querySpec(t, db, tc.spec, q)
		if !equalMultisets(multisetOf(base), multisetOf(res)) {
			t.Errorf("[%s] changed the result multiset", tc.spec.String())
		}
		if cost != tc.wantCost {
			t.Errorf("[%s] cost = %d, want %d", tc.spec.String(), cost, tc.wantCost)
		}
	}
}

// TestPlanSpecForcedInapplicableDegradesToScan: unknown index names,
// partial indexes, and indexes with no matching sargable conjunct all
// degrade to the full scan — same rows, full-scan cost, no error.
func TestPlanSpecForcedInapplicableDegradesToScan(t *testing.T) {
	db := openPlanDB(t)
	planSpecTable(t, db)
	mustExec(t, db, "CREATE INDEX ipart ON t (a) WHERE b IS NOT NULL")
	const q = "SELECT * FROM t WHERE a = 7 AND b = 3"
	base, _ := querySpec(t, db, PlanSpec{}, q)
	_, fullCost := querySpec(t, db, PlanSpec{DisableIndexPaths: true}, q)

	for _, rs := range []RelSpec{
		{Force: ForceIndex, Index: "nosuch"},
		{Force: ForceIndex, Index: "ipart"}, // partial: never forced
		{Force: ForceIndex, Index: "ic"},    // created below on c: no sargable conjunct
	} {
		if rs.Index == "ic" {
			mustExec(t, db, "CREATE INDEX ic ON t (c)")
		}
		spec := PlanSpec{Relations: map[string]RelSpec{"t": rs}}
		res, cost := querySpec(t, db, spec, q)
		if !equalMultisets(multisetOf(base), multisetOf(res)) {
			t.Errorf("[%s] changed the result multiset", spec.String())
		}
		if cost != fullCost {
			t.Errorf("[%s] cost = %d, want the full scan (%d)", spec.String(), cost, fullCost)
		}
	}

	// DML forcing degrades the same way: an unknown forced index must
	// leave UPDATE on the full scan with identical final state.
	spec := PlanSpec{Relations: map[string]RelSpec{"t": {Force: ForceIndex, Index: "nosuch"}}}
	db.SetPlanSpec(spec)
	if err := db.Exec("UPDATE t SET c = 'hit' WHERE a = 7 AND b = 3"); err != nil {
		t.Fatalf("forced DML must not error: %v", err)
	}
	fullDML := db.LastCost()
	db.SetPlanSpec(PlanSpec{})
	if err := db.Exec("UPDATE t SET c = 'hit' WHERE a = 7 AND b = 3"); err != nil {
		t.Fatal(err)
	}
	if autoDML := db.LastCost(); fullDML <= autoDML*8 {
		t.Errorf("forced-inapplicable DML cost = %d, want full-scan scale (auto %d)", fullDML, autoDML)
	}
	res, err := db.Query("SELECT * FROM t WHERE c = 'hit'")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("forced DML state wrong: %v rows, err %v", len(res.Rows), err)
	}
}

// TestPlanSpecJoinForcing: ProbeOff forces the quadratic loop (same
// multiset, quadratic cost), and SwapInputs takes the other input order
// (observable as the index probe moving to the other relation).
func TestPlanSpecJoinForcing(t *testing.T) {
	db := openPlanDB(t)
	mustExec(t, db, "CREATE TABLE l (x INTEGER, lx TEXT)")
	mustExec(t, db, "CREATE TABLE r (y INTEGER, ry TEXT)")
	for i := 0; i < 8; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO l VALUES (%d, 'l%d')", i, i))
	}
	for i := 0; i < 128; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO r VALUES (%d, 'r%d')", i%8, i))
	}
	mustExec(t, db, "CREATE INDEX iy ON r (y)")

	const q = "SELECT l.lx, r.ry FROM l INNER JOIN r ON l.x = r.y"
	base, probeCost := querySpec(t, db, PlanSpec{}, q)
	_, quadCost := querySpec(t, db, PlanSpec{DisableIndexPaths: true}, q)
	if probeCost*4 >= quadCost {
		t.Fatalf("auto plan should probe: cost %d vs quadratic %d", probeCost, quadCost)
	}
	off, offCost := querySpec(t, db, PlanSpec{Joins: map[int]JoinSpec{0: {ProbeOff: true}}}, q)
	if !equalMultisets(multisetOf(base), multisetOf(off)) {
		t.Error("probeoff changed the join multiset")
	}
	if offCost != quadCost {
		t.Errorf("probeoff cost = %d, want the quadratic %d", offCost, quadCost)
	}
	// ForceScan on the right relation suppresses probing into it too.
	scanR, scanCost := querySpec(t, db,
		PlanSpec{Relations: map[string]RelSpec{"r": {Force: ForceScan}}}, q)
	if !equalMultisets(multisetOf(base), multisetOf(scanR)) || scanCost != quadCost {
		t.Errorf("rel:r=scan: cost %d, want quadratic (%d) with same rows", scanCost, quadCost)
	}

	// A sargable conjunct on r is only probeable when r leads the FROM:
	// the permuted input order makes it the planned relation.
	const qs = "SELECT l.lx, r.ry FROM l INNER JOIN r ON l.x = r.y WHERE r.y = 3"
	noSwap, noSwapCost := querySpec(t, db, PlanSpec{}, qs)
	swap, swapCost := querySpec(t, db, PlanSpec{JoinPerm: []int{1, 0}}, qs)
	if !equalMultisets(multisetOf(noSwap), multisetOf(swap)) {
		t.Error("perm changed the join multiset")
	}
	if swapCost >= noSwapCost {
		t.Errorf("perm must let the r.y probe lead: cost %d vs %d", swapCost, noSwapCost)
	}

	// SELECT * stays permutable: the order-restoring projection keeps the
	// output columns in original relation order while the join runs in
	// permuted order.
	const qstar = "SELECT * FROM l INNER JOIN r ON l.x = r.y"
	starBase, _ := querySpec(t, db, PlanSpec{}, qstar)
	starSwap, _ := querySpec(t, db, PlanSpec{JoinPerm: []int{1, 0}}, qstar)
	if strings.Join(starBase.Columns, ",") != strings.Join(starSwap.Columns, ",") {
		t.Errorf("star projection not order-restored: columns %v vs %v", starBase.Columns, starSwap.Columns)
	}
	if !equalMultisets(multisetOf(starBase), multisetOf(starSwap)) {
		t.Error("permuted star query changed the result")
	}
}

// TestSwapGatedByLaterNaturalJoin: a NATURAL join after the first two
// relations binds its shared columns to the first earlier relation in
// scope order, so swapping the inputs would rebind them — the swap must
// be ignored and the enumerator must not emit it.
func TestSwapGatedByLaterNaturalJoin(t *testing.T) {
	db := openPlanDB(t)
	mustExec(t, db, "CREATE TABLE t0 (x INTEGER, y INTEGER)")
	mustExec(t, db, "CREATE TABLE t1 (x INTEGER, y INTEGER)")
	mustExec(t, db, "CREATE TABLE t2 (x INTEGER)")
	mustExec(t, db, "INSERT INTO t0 VALUES (1, 5)")
	mustExec(t, db, "INSERT INTO t1 VALUES (2, 5)")
	mustExec(t, db, "INSERT INTO t2 VALUES (1), (2)")

	const q = "SELECT t0.x, t1.x, t2.x FROM t0 INNER JOIN t1 ON t0.y = t1.y NATURAL JOIN t2"
	base, _ := querySpec(t, db, PlanSpec{}, q)
	swapped, _ := querySpec(t, db, PlanSpec{JoinPerm: []int{1, 0}}, q)
	if !equalMultisets(multisetOf(base), multisetOf(swapped)) {
		t.Fatalf("perm must be ignored under a later NATURAL join:\nbase: %v\nperm: %v",
			base.RenderRows(), swapped.RenderRows())
	}
	sel := parseSelectStmt(t, q)
	for _, spec := range EnumeratePlans(db, sel) {
		if len(spec.JoinPerm) > 0 {
			t.Fatalf("enumerator emitted an unsafe permutation: %s", spec.String())
		}
	}
}

// TestEnumeratePlansDeterministicAndShaped: enumeration is a pure
// function of (statement, catalog) with the canonical order — the
// planner-off spec first — and covers every forcing axis the statement
// admits.
// TestNextPermIsLexicographic: from the identity, nextPerm steps
// through all k! orders, each above the last, so EnumeratePlans lists
// the join-order specs in lexicographic order.
func TestNextPermIsLexicographic(t *testing.T) {
	fact := 1
	for k := 1; k <= maxPermRels; k++ {
		fact *= k
		perm := make([]int, k)
		for i := range perm {
			perm[i] = i
		}
		prev := slices.Clone(perm)
		n := 1
		for nextPerm(perm) {
			if slices.Compare(prev, perm) >= 0 {
				t.Fatalf("k=%d: %v follows %v", k, perm, prev)
			}
			prev = slices.Clone(perm)
			n++
		}
		if n != fact {
			t.Errorf("k=%d: %d orders, want %d", k, n, fact)
		}
		if !slices.Equal(perm, prev) {
			t.Errorf("k=%d: the last call moved %v to %v", k, prev, perm)
		}
	}
}

func TestEnumeratePlansDeterministicAndShaped(t *testing.T) {
	db := openPlanDB(t)
	planSpecTable(t, db)
	mustExec(t, db, "CREATE TABLE r (y INTEGER, ry TEXT)")
	mustExec(t, db, "INSERT INTO r VALUES (3, 'x')")
	mustExec(t, db, "CREATE INDEX iy ON r (y)")

	sel := parseSelectStmt(t, "SELECT t.c, r.ry FROM t INNER JOIN r ON t.a = r.y WHERE t.a = 7 AND t.b = 3")

	render := func(specs []PlanSpec) string {
		var sb strings.Builder
		for _, s := range specs {
			sb.WriteString(s.String())
			sb.WriteString("; ")
		}
		return sb.String()
	}
	first := EnumeratePlans(db, sel)
	second := EnumeratePlans(db, sel)
	if render(first) != render(second) {
		t.Fatalf("enumeration not deterministic:\n%s\n%s", render(first), render(second))
	}
	got := render(first)
	if first[0].String() != "noindex" {
		t.Errorf("plan space must lead with the planner-off spec: %s", got)
	}
	for _, want := range []string{
		"rel:t=scan",
		"rel:t=index(ia)",
		"rel:t=index(iab)",
		"rel:t=index(iab)/w1",
		"join:0=probeoff",
		"perm:1,0",
	} {
		if !strings.Contains(got, want+"; ") {
			t.Errorf("plan space misses %q: %s", want, got)
		}
	}

	// Every enumerated plan is equivalent on the clean engine.
	q := sel.SQL()
	base, _ := querySpec(t, db, PlanSpec{}, q)
	for _, spec := range first {
		res, _ := querySpec(t, db, spec, q)
		if !equalMultisets(multisetOf(base), multisetOf(res)) {
			t.Errorf("enumerated plan [%s] diverges on a clean engine", spec.String())
		}
	}
}

// TestPrefixSpanTruncateInvisibleToLegacyPair is the fault-design check
// behind the acceptance criterion: for a fully constrained composite
// query the auto plan consumes the whole key and agrees with the full
// scan — the legacy index-on/off pair sees nothing — while the
// width-capped forced plan reaches the defective short-prefix span and
// diverges.
func TestPrefixSpanTruncateInvisibleToLegacyPair(t *testing.T) {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = "prefix-trunc-1"
	d.Faults = faults.NewSet([]faults.Fault{{
		ID: "prefix-trunc-1-drop", Dialect: d.Name, Class: faults.Logic,
		Kind: faults.PrefixSpanTruncate,
	}})
	db := Open(d)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	for i := 0; i < 64; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i%8, (i/8)%4))
	}
	mustExec(t, db, "CREATE INDEX iab ON t (a, b)")

	// b = 3 is the maximum b within the a = 7 group, so the short-prefix
	// span's dropped last entry is exactly a matching row.
	const q = "SELECT * FROM t WHERE a = 7 AND b = 3"
	auto, _ := querySpec(t, db, PlanSpec{}, q)
	noidx, _ := querySpec(t, db, PlanSpec{DisableIndexPaths: true}, q)
	if !equalMultisets(multisetOf(auto), multisetOf(noidx)) {
		t.Fatal("legacy pair must agree: the auto plan consumes the full key")
	}
	forcedSpec := PlanSpec{Relations: map[string]RelSpec{
		"t": {Force: ForceIndex, Index: "iab", PrefixWidth: 1}}}
	db.SetPlanSpec(forcedSpec)
	forced, err := db.Query(q)
	db.SetPlanSpec(PlanSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if equalMultisets(multisetOf(auto), multisetOf(forced)) {
		t.Fatal("width-capped forced plan must expose the truncation defect")
	}
	if len(forced.Rows) >= len(auto.Rows) {
		t.Errorf("truncation must drop rows: %d vs %d", len(forced.Rows), len(auto.Rows))
	}
	found := false
	for _, id := range db.TriggeredFaults() {
		if id == "prefix-trunc-1-drop" {
			found = true
		}
	}
	if !found {
		t.Errorf("ground truth not attributed: %v", db.TriggeredFaults())
	}
}
