package engine

import "testing"

// expectClass asserts that sql fails with the given error class.
func expectClass(t *testing.T, db *DB, sql string, class ErrClass) {
	t.Helper()
	err := db.Exec(sql)
	if err == nil {
		t.Fatalf("%s: expected %v error, got success", sql, class)
	}
	if got := ClassOf(err); got != class {
		t.Fatalf("%s: expected %v error, got %v (%v)", sql, class, got, err)
	}
}

func TestStaticTypingRules(t *testing.T) {
	db := openClean(t, "postgresql")
	mustExec(t, db, "CREATE TABLE t (i INTEGER, s TEXT, b BOOLEAN)")

	// Rejected: type mismatches across every operator family.
	for _, sql := range []string{
		"SELECT i + s FROM t",            // arithmetic over TEXT
		"SELECT i || s FROM t",           // concat over INTEGER
		"SELECT i = s FROM t",            // cross-family comparison
		"SELECT b < s FROM t",            // cross-family comparison
		"SELECT i AND b FROM T",          // logical over INTEGER
		"SELECT NOT i FROM t",            // NOT over INTEGER
		"SELECT - s FROM t",              // unary minus over TEXT
		"SELECT i FROM t WHERE i",        // non-boolean WHERE
		"SELECT i FROM t WHERE s LIKE i", // non-TEXT pattern
		"SELECT i BETWEEN s AND s FROM t",
		"SELECT i IN (s) FROM t",
		"SELECT i IS TRUE FROM t",
		"SELECT CASE WHEN i THEN 1 END FROM t",        // non-boolean WHEN
		"SELECT CASE WHEN b THEN 1 ELSE s END FROM t", // mixed branches
		"SELECT ABS(s) FROM t",                        // wrong argument kind
		"SELECT LOWER(i) FROM t",                      // wrong argument kind
		"UPDATE t SET i = s",                          // assignment mismatch
		"INSERT INTO t (i) VALUES ('x')",              // insert mismatch
		"SELECT MIN(i, s) FROM t",                     // scalar MIN families
		"SELECT i FROM t UNION SELECT s FROM t",       // compound arm types
		"SELECT t2.x FROM (SELECT s AS x FROM t) AS t2 WHERE t2.x > 1",
	} {
		expectClass(t, db, sql, ErrSemantic)
	}

	// Accepted: NULL unifies with every family; CAST converts.
	for _, sql := range []string{
		"SELECT i + NULL FROM t",
		"SELECT s || NULL FROM t",
		"SELECT i = NULL FROM t",
		"SELECT NULLIF(i, NULL) + 1 FROM t",
		"SELECT CAST(s AS INTEGER) + i FROM t",
		"SELECT CAST(i AS TEXT) || s FROM t",
		"SELECT CASE WHEN b THEN i ELSE NULL END FROM t",
		"SELECT COALESCE(NULL, i) + 1 FROM t",
		"SELECT i FROM t WHERE b",
		"SELECT i FROM t WHERE b IS TRUE",
	} {
		mustExec(t, db, sql)
	}
}

// TestAggregatePlacement: an aggregate outside a projection, HAVING or
// ORDER BY, or inside another aggregate, is a semantic error; one inside
// a subquery belongs to the subquery.
func TestAggregatePlacement(t *testing.T) {
	db := openClean(t, "sqlite")
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "CREATE TABLE u (b INTEGER)")
	for _, sql := range []string{
		"SELECT a FROM t WHERE COUNT(a) > 0",
		"SELECT a FROM t WHERE NOT (SUM(a) = 1)",
		"SELECT a FROM t JOIN u ON MAX(b) = a",
		"SELECT COUNT(SUM(a)) FROM t",
		"SELECT SUM(a + MIN(a)) FROM t",
		"DELETE FROM t WHERE AVG(a) > 1",
	} {
		expectClass(t, db, sql, ErrSemantic)
	}
	for _, sql := range []string{
		"SELECT a FROM t WHERE a > (SELECT MAX(b) FROM u)",
		"SELECT a FROM t JOIN u ON (SELECT COUNT(*) FROM u) > a",
		"SELECT COUNT(a) FROM t GROUP BY a HAVING SUM(a) > 0",
		"SELECT MIN(a, 1) FROM t WHERE MAX(a, 2) > 0", // scalar MIN/MAX
	} {
		mustExec(t, db, sql)
	}
}

func TestDynamicTypingAcceptsEverything(t *testing.T) {
	db := openClean(t, "sqlite")
	mustExec(t, db, "CREATE TABLE t (i INTEGER, s TEXT, b BOOLEAN)")
	for _, sql := range []string{
		"SELECT i + s FROM t",
		"SELECT i || b FROM t",
		"SELECT i = s FROM t",
		"SELECT i FROM t WHERE i",
		"SELECT i FROM t WHERE s",
		"SELECT CASE WHEN i THEN s ELSE b END FROM t",
		"SELECT ABS(s) FROM t",
		"SELECT LOWER(i) FROM t",
		"UPDATE t SET i = s",
		"SELECT i FROM t UNION SELECT s FROM t",
	} {
		mustExec(t, db, sql)
	}
}

func TestNameResolutionErrors(t *testing.T) {
	db := openClean(t, "sqlite")
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	for _, sql := range []string{
		"SELECT nope FROM t",
		"SELECT t.nope FROM t",
		"SELECT u.a FROM t",
		"SELECT a FROM nope",
		"INSERT INTO nope (a) VALUES (1)",
		"INSERT INTO t (nope) VALUES (1)",
		"INSERT INTO t (a) VALUES (1, 2)", // arity mismatch
		"UPDATE nope SET a = 1",
		"UPDATE t SET nope = 1",
		"DELETE FROM nope",
		"CREATE INDEX i ON nope (a)",
		"CREATE INDEX i ON t (nope)",
		"DROP TABLE nope",
		"DROP VIEW nope",
		"CREATE TABLE bad (a INTEGER, a TEXT)", // duplicate column
		"SELECT (SELECT a, a FROM t) FROM t",   // multi-column scalar subquery
	} {
		expectClass(t, db, sql, ErrSemantic)
	}
}

func TestUnsupportedFeatureErrors(t *testing.T) {
	// Each dialect rejects exactly its missing features with the
	// ErrUnsupported class (which the feedback loop keys on).
	cases := []struct {
		dialect string
		sql     string
	}{
		{"postgresql", "SELECT 1 WHERE 1 <=> 1"},
		{"postgresql", "SELECT TRUE XOR FALSE"},
		{"postgresql", "SELECT 'a' GLOB '*'"},
		{"mysql", "SELECT 'a' || 'b'"},
		{"mysql", "SELECT 1 IS DISTINCT FROM 2"},
		{"mysql", "SELECT 1 INTERSECT SELECT 2"},
		{"mysql", "SELECT 1 EXCEPT SELECT 2"},
		{"sqlite", "SELECT GCD(4, 6)"},
		{"oracle", "SELECT TRUE"},
		{"oracle", "SELECT 1 ~ 1"},
		{"firebird", "SELECT 1 & 2"},
		{"vitess", "SELECT (SELECT 1)"},
	}
	for _, c := range cases {
		db := openClean(t, c.dialect)
		err := db.Exec(c.sql)
		if err == nil {
			// A few of these fail at parse on some grammars; that also
			// counts as a failed statement, but unsupported is expected.
			t.Errorf("%s on %s: expected error", c.sql, c.dialect)
			continue
		}
		if ClassOf(err) != ErrUnsupported && ClassOf(err) != ErrSyntax {
			t.Errorf("%s on %s: want unsupported, got %v", c.sql, c.dialect, err)
		}
	}
}

func TestOracleDialectRestrictions(t *testing.T) {
	// Oracle (the DBMS) has no BOOLEAN type and no LIMIT in our profile.
	db := openClean(t, "oracle")
	expectClass(t, db, "CREATE TABLE t (b BOOLEAN)", ErrUnsupported)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	expectClass(t, db, "SELECT a FROM t LIMIT 1", ErrUnsupported)
	expectClass(t, db, "ALTER TABLE t ADD COLUMN b BOOLEAN", ErrUnsupported)
}
