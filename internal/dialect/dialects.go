package dialect

import (
	"sqlancerpp/internal/faults"
	"sqlancerpp/internal/feature"
)

// grpBitwiseOps are the bitwise operators some dialects lack.
var grpBitwiseOps = []feature.ID{feature.OpBitAndID, feature.OpBitOrID, feature.OpBitXorID, feature.OpShlID, feature.OpShrID, feature.OpBitNotID}

// Dialect-specific extra functions, outside the adaptive generator's
// universal grammar: only the per-DBMS baseline generators know about
// them (Figure 7's baseline-only Venn regions; Table 3's coverage gap).
var (
	extrasPG     = []feature.ID{feature.FnGREATEST, feature.FnLEAST, feature.FnCONCAT, feature.FnCONCAT_WS, feature.FnTO_HEX}
	extrasMySQL  = []feature.ID{feature.FnGREATEST, feature.FnLEAST, feature.FnCONCAT, feature.FnCONCAT_WS, feature.FnREPEAT, feature.FnELT, feature.FnFIELD, feature.FnBIN, feature.FnOCT}
	extrasSQLite = []feature.ID{feature.FnPRINTF, feature.FnLIKELY, feature.FnUNLIKELY, feature.FnCONCAT}
	extrasDuck   = []feature.ID{feature.FnGREATEST, feature.FnLEAST, feature.FnCONCAT, feature.FnREPEAT, feature.FnBIN}
)

func allTypes() feature.Set {
	return set([]feature.ID{feature.TypeIntegerID, feature.TypeTextID, feature.TypeBooleanID})
}

// profilePG is the statically typed PostgreSQL-family base.
func profilePG(name, display string) *Dialect {
	return &Dialect{
		Name:        name,
		DisplayName: display,
		TypeSystem:  Static,
		Statements:  universalStatements(),
		Clauses:     universalClauses(),
		Operators: without(universalOperators(),
			feature.OpNullSafeEqID, feature.OpXorID, feature.ExprGlobID),
		Functions: without(universalFunctions(),
			feature.FnIFNULL, feature.FnIIF, feature.FnINSTR, feature.FnHEX,
			feature.FnQUOTE, feature.FnTYPEOF, feature.FnUNICODE,
			feature.FnSPACE, feature.FnLOG2),
		Types:           allTypes(),
		DivZeroError:    true,
		CastTextError:   true,
		MathDomainError: true,
	}
}

// profileMySQL is the dynamically typed MySQL-family base.
func profileMySQL(name, display string) *Dialect {
	d := &Dialect{
		Name:        name,
		DisplayName: display,
		TypeSystem:  Dynamic,
		// MySQL-family systems have no REINDEX (index rebuilds go through
		// OPTIMIZE/ALTER) — one more intentionally divergent statement for
		// the adaptive generator to learn.
		Statements: without(universalStatements(), feature.StmtReindexID),
		Clauses: without(universalClauses(),
			feature.JoinFullID, feature.InsertOrIgnoreID, feature.PartialIndexID,
			feature.IntersectID, feature.ExceptID),
		Operators: without(universalOperators(),
			feature.OpConcatID, feature.OpIsDistinctID, feature.OpIsNotDistinctID, feature.ExprGlobID),
		Functions: without(universalFunctions(),
			feature.FnIIF, feature.FnTYPEOF, feature.FnINITCAP, feature.FnSPLIT_PART, feature.FnTRANSLATE, feature.FnCHR,
			feature.FnUNICODE, feature.FnTRUNC, feature.FnGCD, feature.FnLCM),
		Types: allTypes(),
	}
	d.Functions = with(d.Functions, extrasMySQL...)
	return d
}

// profileSQLite is the dynamically typed SQLite base: the most permissive
// dialect (the paper's §5.2 notes SQLite is the only system that executes
// test cases from more than half of the other systems).
func profileSQLite(name, display string) *Dialect {
	d := &Dialect{
		Name:        name,
		DisplayName: display,
		TypeSystem:  Dynamic,
		Statements:  universalStatements(),
		Clauses:     universalClauses(),
		Operators:   without(universalOperators(), feature.OpNullSafeEqID, feature.OpXorID),
		Functions: without(universalFunctions(),
			feature.FnINITCAP, feature.FnSTRPOS, feature.FnSPLIT_PART, feature.FnTRANSLATE, feature.FnLPAD, feature.FnRPAD,
			feature.FnSPACE, feature.FnREVERSE, feature.FnCHAR_LENGTH, feature.FnBIT_LENGTH, feature.FnOCTET_LENGTH,
			feature.FnASCII, feature.FnCHR, feature.FnGCD, feature.FnLCM),
		Types: allTypes(),
	}
	d.Functions = with(d.Functions, extrasSQLite...)
	return d
}

func withFaults(d *Dialect) *Dialect {
	d.Faults = faults.NewSet(faults.ForDialect(d.Name))
	return d
}

// builtins is the registry of built-in dialects, sorted by name. Each
// one is built, with its fault set, on its first Get.
var builtins = [...]builtin{
	{name: "cedardb", build: cedarDB},
	{name: "cratedb", build: crateDB},
	{name: "cubrid", build: cubrid},
	{name: "dolt", build: dolt},
	{name: "duckdb", build: duckDB},
	{name: "firebird", build: firebird},
	{name: "h2", build: h2},
	{name: "mariadb", build: func() *Dialect { return profileMySQL("mariadb", "MariaDB") }},
	{name: "monetdb", build: monetDB},
	{name: "mysql", build: func() *Dialect { return profileMySQL("mysql", "MySQL") }},
	{name: "oracle", build: oracle},
	{name: "percona", build: func() *Dialect { return profileMySQL("percona", "Percona MySQL") }},
	{name: "postgresql", build: postgreSQL},
	{name: "risingwave", build: risingWave},
	{name: "sqlite", build: func() *Dialect { return profileSQLite("sqlite", "SQLite") }},
	{name: "tidb", build: tidb},
	{name: "umbra", build: umbra},
	{name: "virtuoso", build: virtuoso},
	{name: "vitess", build: vitess},
}

// --- dynamically typed systems -------------------------------------------

func tidb() *Dialect {
	d := profileMySQL("tidb", "TiDB")
	d.Clauses = with(d.Clauses, feature.IntersectID, feature.ExceptID) // TiDB ≥ v5
	d.Clauses = without(d.Clauses, feature.JoinNaturalID)
	d.Functions = without(d.Functions, feature.FnCOT, feature.FnELT, feature.FnFIELD)
	return d
}

func dolt() *Dialect {
	d := profileMySQL("dolt", "Dolt")
	d.Statements = without(d.Statements, feature.StmtAnalyzeID)
	d.Functions = without(d.Functions, feature.FnBIN, feature.FnOCT, feature.FnATAN2, feature.FnCOT)
	return d
}

func vitess() *Dialect {
	d := profileMySQL("vitess", "Vitess")
	// Vitess secondary indexes route scatter queries by a single column
	// here: no composite keys — a learnable gap for the generator.
	d.Clauses = without(d.Clauses, feature.JoinNaturalID, feature.SubqueryID,
		feature.DerivedTableID, feature.CompositeIndexID)
	d.Operators = without(d.Operators, feature.SubqueryID, feature.ExprExistsID)
	d.Functions = without(d.Functions, feature.FnELT, feature.FnFIELD, feature.FnBIN,
		feature.FnOCT, feature.FnCOT, feature.FnATAN2, feature.FnLOG2)
	return d
}

func cubrid() *Dialect {
	d := profileMySQL("cubrid", "Cubrid")
	d.Operators = with(d.Operators, feature.OpConcatID)
	d.Operators = without(d.Operators, feature.OpNullSafeEqID)
	d.Functions = without(d.Functions, feature.FnREPEAT, feature.FnCONCAT_WS, feature.FnLOG2, feature.FnATAN2)
	return d
}

// --- statically typed systems --------------------------------------------

// postgreSQL is clean: it has no catalogue entry.
func postgreSQL() *Dialect {
	d := profilePG("postgresql", "PostgreSQL")
	d.Functions = with(d.Functions, extrasPG...)
	return d
}

func crateDB() *Dialect {
	d := profilePG("cratedb", "CrateDB")
	// CrateDB does not support CREATE INDEX (paper Appendix A.1) and
	// requires REFRESH TABLE before reads see inserted rows (paper §6).
	d.Statements = without(d.Statements, feature.StmtCreateIndexID,
		feature.StmtDropIndexID, feature.StmtReindexID)
	d.Clauses = without(d.Clauses, feature.UniqueIndexID, feature.PartialIndexID)
	d.Functions = without(d.Functions, feature.FnGCD, feature.FnLCM, feature.FnCOT, feature.FnIIF)
	d.Functions = with(d.Functions, feature.FnGREATEST, feature.FnLEAST, feature.FnCONCAT)
	d.RequiresRefresh = true
	return d
}

func duckDB() *Dialect {
	d := profilePG("duckdb", "DuckDB")
	d.Operators = with(d.Operators, feature.ExprGlobID)
	d.Functions = with(d.Functions, extrasDuck...)
	d.Functions = with(d.Functions, feature.FnINSTR, feature.FnHEX, feature.FnTYPEOF, feature.FnIFNULL)
	return d
}

func umbra() *Dialect {
	d := profilePG("umbra", "Umbra")
	d.Functions = without(d.Functions, feature.FnGCD, feature.FnLCM, feature.FnTRANSLATE)
	d.Functions = with(d.Functions, feature.FnGREATEST, feature.FnLEAST, feature.FnHEX)
	return d
}

func cedarDB() *Dialect {
	d := profilePG("cedardb", "CedarDB")
	d.Functions = without(d.Functions, feature.FnGCD, feature.FnLCM, feature.FnTRANSLATE, feature.FnCOT)
	d.Functions = with(d.Functions, feature.FnGREATEST, feature.FnLEAST)
	return d
}

func risingWave() *Dialect {
	d := profilePG("risingwave", "RisingWave")
	d.Statements = without(d.Statements, feature.StmtAnalyzeID)
	d.Clauses = without(d.Clauses, feature.PartialIndexID)
	d.Functions = without(d.Functions, feature.FnGCD, feature.FnLCM, feature.FnCOT, feature.FnATAN2)
	d.RequiresRefresh = true
	return d
}

func monetDB() *Dialect {
	d := profilePG("monetdb", "MonetDB")
	d.Operators = without(d.Operators, feature.OpIsDistinctID, feature.OpIsNotDistinctID)
	d.Functions = without(d.Functions, feature.FnINITCAP, feature.FnSPLIT_PART,
		feature.FnGCD, feature.FnLCM, feature.FnTO_HEX)
	return d
}

func h2() *Dialect {
	d := profilePG("h2", "H2")
	d.MaxIndexColumns = 2 // column-count limit: wider CREATE INDEX fails
	d.Functions = with(d.Functions, feature.FnIFNULL, feature.FnINSTR, feature.FnSPACE)
	d.Functions = without(d.Functions, feature.FnSPLIT_PART, feature.FnTO_HEX, feature.FnGCD, feature.FnLCM)
	return d
}

func firebird() *Dialect {
	d := profilePG("firebird", "Firebird")
	d.Clauses = without(d.Clauses, feature.IntersectID, feature.ExceptID)
	d.Operators = without(d.Operators, grpBitwiseOps...)
	d.Operators = without(d.Operators, feature.OpIsDistinctID, feature.OpIsNotDistinctID)
	d.Functions = without(d.Functions, feature.FnINITCAP, feature.FnSPLIT_PART,
		feature.FnTRANSLATE, feature.FnTO_HEX, feature.FnGCD, feature.FnLCM,
		feature.FnLOG10, feature.FnCHR, feature.FnATAN2, feature.FnCOT)
	d.Clauses = without(d.Clauses, feature.JoinFullID)
	return d
}

func oracle() *Dialect {
	d := profilePG("oracle", "Oracle")
	d.Operators = without(d.Operators, grpBitwiseOps...)
	d.Clauses = without(d.Clauses, feature.LimitID, feature.OffsetID)
	d.Types = without(d.Types, feature.TypeBooleanID)
	d.Functions = without(d.Functions, feature.FnIFNULL, feature.FnSPLIT_PART,
		feature.FnTO_HEX, feature.FnGCD, feature.FnLCM, feature.FnLOG2,
		feature.FnLOG10, feature.FnDEGREES, feature.FnRADIANS, feature.FnPI)
	d.Functions = with(d.Functions, feature.FnGREATEST, feature.FnLEAST, feature.FnCONCAT)
	return d
}

func virtuoso() *Dialect {
	d := profilePG("virtuoso", "Virtuoso")
	d.Clauses = without(d.Clauses, feature.JoinNaturalID, feature.JoinFullID,
		feature.CompositeIndexID)
	d.Operators = without(d.Operators, feature.OpIsDistinctID, feature.OpIsNotDistinctID)
	d.Functions = without(d.Functions, feature.FnINITCAP, feature.FnSTRPOS,
		feature.FnSPLIT_PART, feature.FnTRANSLATE, feature.FnTO_HEX, feature.FnGCD,
		feature.FnLCM, feature.FnTRUNC, feature.FnCOT, feature.FnATAN2, feature.FnUNICODE)
	return d
}

// PaperDBMSs lists the 18 systems of the paper's Table 2 (sorted as in
// the paper: alphabetically by display name).
var PaperDBMSs = []string{
	"cedardb", "cratedb", "cubrid", "dolt", "duckdb", "firebird", "h2",
	"mariadb", "monetdb", "mysql", "oracle", "percona", "risingwave",
	"sqlite", "tidb", "umbra", "virtuoso", "vitess",
}
