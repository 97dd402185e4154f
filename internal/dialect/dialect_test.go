package dialect

import (
	"testing"

	"sqlancerpp/internal/faults"
	"sqlancerpp/internal/feature"
)

func TestPaperDBMSsRegistered(t *testing.T) {
	if len(PaperDBMSs) != 18 {
		t.Fatalf("paper lists 18 DBMSs, registry names %d", len(PaperDBMSs))
	}
	for _, name := range PaperDBMSs {
		d, err := Get(name)
		if err != nil {
			t.Fatalf("paper DBMS %q not registered: %v", name, err)
		}
		if d.DisplayName == "" {
			t.Errorf("%s: missing display name", name)
		}
	}
	if _, err := Get("postgresql"); err != nil {
		t.Fatal("postgresql (experiment baseline) must be registered")
	}
}

// TestFaultParamsAreSupportedFeatures guards the catalogue: a fault keyed
// on a feature its own dialect does not support would be unreachable.
func TestFaultParamsAreSupportedFeatures(t *testing.T) {
	for _, name := range PaperDBMSs {
		d := MustGet(name)
		for _, f := range faults.ForDialect(name) {
			if f.Param == "" {
				continue
			}
			id, ok := feature.Lookup(f.Param)
			supported := ok && (d.Operators.Has(id) ||
				d.Functions.Has(id) ||
				d.Clauses.Has(id) ||
				d.Statements.Has(id))
			if !supported {
				t.Errorf("%s: fault %s targets unsupported feature %q",
					name, f.ID, f.Param)
			}
		}
	}
}

// TestCrashFaultsDoNotShadowLogicFaults: a crash fault on the same
// feature as a logic fault would fire first and make the logic fault
// unfindable.
func TestCrashFaultsDoNotShadowLogicFaults(t *testing.T) {
	for _, name := range PaperDBMSs {
		byParam := map[string]faults.Class{}
		for _, f := range faults.ForDialect(name) {
			if f.Class == faults.Crash || f.Class == faults.Error {
				byParam[f.Param] = f.Class
			}
		}
		for _, f := range faults.ForDialect(name) {
			if f.Class != faults.Logic || f.Param == "" {
				continue
			}
			if c, clash := byParam[f.Param]; clash {
				t.Errorf("%s: logic fault %s shadowed by %s fault on %q",
					name, f.ID, c, f.Param)
			}
		}
	}
}

func TestDialectDivergence(t *testing.T) {
	// The paper's §5.2 premise: feature sets differ meaningfully.
	sqlite := MustGet("sqlite")
	pg := MustGet("postgresql")
	mysql := MustGet("mysql")
	if pg.Operators.Has(feature.OpNullSafeEqID) {
		t.Error("postgresql must not support <=>")
	}
	if !mysql.Operators.Has(feature.OpNullSafeEqID) {
		t.Error("mysql must support <=>")
	}
	if mysql.Operators.Has(feature.OpConcatID) {
		t.Error("mysql must not support ||")
	}
	if !sqlite.Operators.Has(feature.ExprGlobID) {
		t.Error("sqlite must support GLOB")
	}
	if pg.Operators.Has(feature.ExprGlobID) {
		t.Error("postgresql must not support GLOB")
	}
	if mysql.Clauses.Has(feature.JoinFullID) {
		t.Error("mysql must not support FULL JOIN")
	}
	crate := MustGet("cratedb")
	if crate.Statements.Has(feature.StmtCreateIndexID) {
		t.Error("cratedb must not support CREATE INDEX (paper Appendix A.1)")
	}
	if !crate.RequiresRefresh {
		t.Error("cratedb requires REFRESH TABLE (paper §6)")
	}
	oracle := MustGet("oracle")
	if oracle.Types.Has(feature.TypeBooleanID) {
		t.Error("oracle must not support BOOLEAN")
	}
	if oracle.Clauses.Has(feature.LimitID) {
		t.Error("oracle must not support LIMIT")
	}
}

func TestTypeSystemSplit(t *testing.T) {
	dynamic := []string{"sqlite", "mysql", "mariadb", "percona", "tidb", "dolt", "vitess", "cubrid"}
	static := []string{"postgresql", "cratedb", "duckdb", "umbra", "cedardb",
		"risingwave", "monetdb", "h2", "firebird", "oracle", "virtuoso"}
	for _, n := range dynamic {
		if MustGet(n).TypeSystem != Dynamic {
			t.Errorf("%s must be dynamically typed", n)
		}
	}
	for _, n := range static {
		if MustGet(n).TypeSystem != Static {
			t.Errorf("%s must be statically typed", n)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := MustGet("sqlite")
	c := d.Clone()
	c.Functions.Add(feature.FnINITCAP)
	c.Operators.Add(feature.OpXorID)
	if d.Functions.Has(feature.FnINITCAP) || d.Operators.Has(feature.OpXorID) {
		t.Fatal("Clone must copy the feature masks")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	d := MustGet("sqlite").Clone()
	d.Name = "dup-test-dialect"
	if err := Register(d); err != nil {
		t.Fatal(err)
	}
	if err := Register(d); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if _, err := Get("no-such-dialect"); err == nil {
		t.Fatal("unknown dialect lookup must fail")
	}
}

func TestUniversalGrammarGaps(t *testing.T) {
	// Every paper dialect must miss at least a few universal features —
	// otherwise the adaptive generator would have nothing to learn.
	for _, name := range PaperDBMSs {
		d := MustGet(name)
		missing := 0
		for _, f := range feature.FunctionIDs {
			if !d.Functions.Has(f) {
				missing++
			}
		}
		for _, op := range feature.BinaryOperatorIDs {
			if !d.Operators.Has(op) {
				missing++
			}
		}
		if missing < 3 {
			t.Errorf("%s misses only %d universal features — too permissive", name, missing)
		}
	}
}
