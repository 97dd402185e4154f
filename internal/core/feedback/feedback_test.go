package feedback

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBetaCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, a, b float64
		want    float64
	}{
		// Beta(1, b): CDF(x) = 1 - (1-x)^b.
		{0.01, 1, 401, 1 - math.Pow(0.99, 401)},
		{0.5, 1, 1, 0.5}, // uniform
		{0.25, 1, 2, 1 - math.Pow(0.75, 2)},
		// Symmetric distribution at the midpoint.
		{0.5, 5, 5, 0.5},
		// Degenerate edges.
		{0, 3, 3, 0},
		{1, 3, 3, 1},
	}
	for _, c := range cases {
		got := BetaCDF(c.x, c.a, c.b)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("BetaCDF(%v, %v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestBetaCDFPaperExample(t *testing.T) {
	// Paper §4: y=0, N=400 with p=0.01 — the posterior Beta(1, 401) has
	// more than 95% of its mass below 0.01, so the feature is deemed
	// unsupported.
	mass := BetaCDF(0.01, 1, 401)
	if mass < 0.95 {
		t.Fatalf("paper example: mass %v, want ≥ 0.95", mass)
	}
	// With only 100 zero-success executions, confidence is insufficient.
	if BetaCDF(0.01, 1, 101) >= 0.95 {
		t.Fatal("100 executions must not reach 95% confidence at p=0.01")
	}
}

func TestBetaCDFProperties(t *testing.T) {
	// Monotone in x.
	mono := func(x1, x2 float64, ai, bi uint8) bool {
		a, b := float64(ai%50)+1, float64(bi%50)+1
		x1 = math.Abs(math.Mod(x1, 1))
		x2 = math.Abs(math.Mod(x2, 1))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return BetaCDF(x1, a, b) <= BetaCDF(x2, a, b)+1e-12
	}
	if err := quick.Check(mono, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Bounded in [0, 1].
	bounded := func(x float64, ai, bi uint8) bool {
		a, b := float64(ai%50)+1, float64(bi%50)+1
		x = math.Abs(math.Mod(x, 1))
		v := BetaCDF(x, a, b)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(bounded, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	sym := func(x float64, ai, bi uint8) bool {
		a, b := float64(ai%50)+1, float64(bi%50)+1
		x = math.Abs(math.Mod(x, 1))
		return math.Abs(BetaCDF(x, a, b)-(1-BetaCDF(1-x, b, a))) < 1e-9
	}
	if err := quick.Check(sym, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTrackerLearnsUnsupportedQueryFeature(t *testing.T) {
	tr := New(WithThreshold(0.05), WithUpdateInterval(50))
	for i := 0; i < 100; i++ {
		tr.RecordQuery([]string{"XOR", "="}, false)
		tr.RecordQuery([]string{"="}, true)
	}
	if tr.Supported("XOR") {
		t.Fatal("always-failing feature must become unsupported")
	}
	if !tr.Supported("=") {
		t.Fatal("mixed-outcome feature must stay supported")
	}
	if !tr.Supported("NEVER-SEEN") {
		t.Fatal("unknown features default to supported")
	}
}

func TestTrackerRecovery(t *testing.T) {
	// A feature suppressed by early bad luck recovers when evidence
	// improves (the posterior update removes it from the unsupported set).
	tr := New(WithThreshold(0.5), WithUpdateInterval(10))
	for i := 0; i < 30; i++ {
		tr.RecordQuery([]string{"GLOB"}, false)
	}
	tr.Update()
	if tr.Supported("GLOB") {
		t.Fatal("feature should be suppressed")
	}
	for i := 0; i < 500; i++ {
		tr.RecordQuery([]string{"GLOB"}, true)
	}
	tr.Update()
	if !tr.Supported("GLOB") {
		t.Fatal("feature should recover with overwhelming success evidence")
	}
}

func TestTrackerDDLRule(t *testing.T) {
	tr := New(WithDDLMaxFailures(5), WithUpdateInterval(1))
	for i := 0; i < 4; i++ {
		tr.RecordDDL([]string{"CREATE INDEX"}, false)
	}
	if !tr.Supported("CREATE INDEX") {
		t.Fatal("below the cutoff the feature must stay supported")
	}
	tr.RecordDDL([]string{"CREATE INDEX"}, true) // success resets the streak
	for i := 0; i < 4; i++ {
		tr.RecordDDL([]string{"CREATE INDEX"}, false)
	}
	if !tr.Supported("CREATE INDEX") {
		t.Fatal("the success must have reset the failure streak")
	}
	for i := 0; i < 5; i++ {
		tr.RecordDDL([]string{"CREATE INDEX"}, false)
	}
	if tr.Supported("CREATE INDEX") {
		t.Fatal("five consecutive failures must suppress the feature")
	}
}

func TestTrackerDisabled(t *testing.T) {
	tr := New(Disabled(), WithUpdateInterval(10))
	for i := 0; i < 200; i++ {
		tr.RecordQuery([]string{"XOR"}, false)
	}
	if !tr.Supported("XOR") {
		t.Fatal("a disabled tracker must never suppress")
	}
}

func TestTrackerSaveLoad(t *testing.T) {
	tr := New(WithThreshold(0.05), WithUpdateInterval(10))
	for i := 0; i < 100; i++ {
		tr.RecordQuery([]string{"XOR"}, false)
		tr.RecordQuery([]string{"="}, true)
	}
	tr.Update()
	data, err := tr.Save()
	if err != nil {
		t.Fatal(err)
	}
	tr2 := New(WithThreshold(0.05))
	if err := tr2.Load(data); err != nil {
		t.Fatal(err)
	}
	if tr2.Supported("XOR") {
		t.Fatal("loaded state must keep XOR unsupported")
	}
	n, y := tr2.Stats("=")
	if n != 100 || y != 100 {
		t.Fatalf("loaded stats wrong: N=%d y=%d", n, y)
	}
	if err := tr2.Load([]byte("{broken")); err == nil {
		t.Fatal("corrupt state must be rejected")
	}
}

func TestTrackerUpdateCadence(t *testing.T) {
	tr := New(WithUpdateInterval(25))
	for i := 0; i < 100; i++ {
		tr.RecordQuery([]string{"A"}, true)
	}
	if got := tr.Updates(); got != 4 {
		t.Fatalf("want 4 updates after 100 records at interval 25, got %d", got)
	}
}

func TestTrackerMergeState(t *testing.T) {
	mk := func(feat string, n, fails int) []byte {
		tr := New(WithThreshold(0.05))
		for i := 0; i < n; i++ {
			tr.RecordQuery([]string{feat}, i >= fails)
		}
		data, err := tr.Save()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	merged := New(WithThreshold(0.05))
	// Two shards: one saw XOR fail 40/40 times, one 30/30 — pooled
	// evidence must condemn it; "=" succeeded everywhere and must stay.
	if err := merged.MergeState(mk("XOR", 40, 40)); err != nil {
		t.Fatal(err)
	}
	if err := merged.MergeState(mk("XOR", 30, 30)); err != nil {
		t.Fatal(err)
	}
	if err := merged.MergeState(mk("=", 50, 0)); err != nil {
		t.Fatal(err)
	}
	merged.Update()
	if n, y := merged.Stats("XOR"); n != 70 || y != 0 {
		t.Fatalf("merged XOR stats: N=%d y=%d, want 70/0", n, y)
	}
	if merged.Supported("XOR") {
		t.Fatal("pooled evidence must mark XOR unsupported")
	}
	if !merged.Supported("=") {
		t.Fatal("= must stay supported after merge")
	}
	if err := merged.MergeState([]byte("{broken")); err == nil {
		t.Fatal("corrupt state must be rejected")
	}
}

func TestTrackerMergeStateKeepsDDLRule(t *testing.T) {
	shard := New()
	for i := 0; i < DefaultDDLMaxFailures; i++ {
		shard.RecordDDL([]string{"CREATE VIEW"}, false)
	}
	shard.Update()
	data, err := shard.Save()
	if err != nil {
		t.Fatal(err)
	}
	merged := New()
	if err := merged.MergeState(data); err != nil {
		t.Fatal(err)
	}
	merged.Update()
	if merged.Supported("CREATE VIEW") {
		t.Fatal("DDL condemnation must survive the merge")
	}
}

// TestStateRejectsUnknownFeature: a saved state naming a feature outside
// the table fails Load and MergeState with an error that names it.
func TestStateRejectsUnknownFeature(t *testing.T) {
	states := []string{
		`{"stats":{"=":{"n":1,"y":1,"consecFail":0,"ddl":false},"NO SUCH FEATURE":{"n":1,"y":0,"consecFail":1,"ddl":false}},"unsupported":null}`,
		`{"stats":{},"unsupported":["NO SUCH FEATURE"]}`,
	}
	for _, s := range states {
		tr := New()
		for name, err := range map[string]error{"Load": tr.Load([]byte(s)), "MergeState": tr.MergeState([]byte(s))} {
			if err == nil || !strings.Contains(err.Error(), `"NO SUCH FEATURE"`) {
				t.Errorf("%s(%s) error = %v, want one naming the feature", name, s, err)
			}
		}
	}
}
