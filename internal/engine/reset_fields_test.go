package engine

import (
	"reflect"
	"testing"
	"unsafe"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlparse"
)

// resetRestores lists the DB fields Reset returns to what Open sets;
// resetKeeps the fields it leaves alone: what the options set, and
// memory that holds no state from one statement to the next.
var (
	resetRestores = []string{"store", "crashed", "planSpec", "triggered", "cost", "rows",
		"totalCost", "feats", "depth", "maxDepth"}
	resetKeeps = []string{"dialect", "cov", "faultsEnabled", "openSpec", "budget", "cancel",
		"filterProbe", "scratch", "st", "parse"}
)

// TestResetCoversEveryField: every DB field is classified as restored
// or kept, so a field added to DB fails here until Reset handles it;
// and every restored field, dirtied, reads after Reset exactly as on a
// freshly opened instance with the same options.
func TestResetCoversEveryField(t *testing.T) {
	class := map[string]string{}
	for _, f := range resetRestores {
		class[f] = "restored"
	}
	for _, f := range resetKeeps {
		class[f] = "kept"
	}
	typ := reflect.TypeOf(DB{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if class[name] == "" {
			t.Errorf("DB.%s is neither restored nor kept by Reset: classify it (and restore it if it holds state)", name)
		}
		delete(class, name)
	}
	for name := range class {
		t.Errorf("%s is classified but is not a DB field", name)
	}

	opts := []Option{WithPlanSpec(PlanSpec{CoveringOff: true}), WithParseCache(sqlparse.NewCache(64))}
	db := Open(dialect.MustGet("sqlite"), opts...)
	for _, sql := range []string{
		"CREATE TABLE t0 (a INTEGER, b TEXT)",
		"CREATE INDEX i0 ON t0 (a)",
		"CREATE VIEW v0 AS SELECT a FROM t0",
		"INSERT INTO t0 (a, b) VALUES (1, 'x')",
		"SELECT a, b FROM t0 WHERE a > 0",
	} {
		mustExec(t, db, sql)
	}
	db.crashed = true
	db.SetPlanSpec(PlanSpec{DisableIndexPaths: true})
	db.triggered["f"] = true
	db.cost, db.rows = 7, 3
	db.feats.Add(feature.StmtSelectID)
	db.depth, db.maxDepth = 1, 2

	fresh := Open(dialect.MustGet("sqlite"), opts...)
	field := func(db *DB, name string) any {
		f := reflect.ValueOf(db).Elem().FieldByName(name)
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
	}
	for _, name := range resetRestores {
		if reflect.DeepEqual(field(db, name), field(fresh, name)) {
			t.Fatalf("the test leaves DB.%s as Open sets it: dirty it before Reset", name)
		}
	}
	db.Reset()
	for _, name := range resetRestores {
		if got, want := field(db, name), field(fresh, name); !reflect.DeepEqual(got, want) {
			t.Errorf("after Reset DB.%s = %+v, Open sets %+v", name, got, want)
		}
	}
}
