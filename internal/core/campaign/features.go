package campaign

import (
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/feature"
)

// coreFeatures is the mask of features that participate in bug
// prioritization. The paper's feature sets (Figure 4: {NULLIF, !=}) are
// the *language elements* of the bug-inducing case — operators,
// functions, expression forms, and join kinds — not the bookkeeping
// features the generator also tracks (composite argument types, column/
// constant leaves, statement kinds), whose inclusion would make every
// set nearly unique and defeat the subset rule.
var coreFeatures = buildCoreFeatures()

func buildCoreFeatures() feature.Set {
	var m feature.Set
	m.AddAll(feature.BinaryOperatorIDs)
	m.Add(feature.OpBitNotID)
	m.AddAll(feature.ExprFormIDs)
	m.AddAll(feature.JoinIDs)
	m.AddAll(feature.AggregateIDs)
	for _, ids := range [][]feature.ID{feature.FunctionIDs, feature.ExtraFunctionIDs} {
		for _, id := range ids {
			if engine.FuncByID(id) != nil {
				m.Add(id)
			}
		}
	}
	m.AddAll([]feature.ID{feature.SubqueryID, feature.DerivedTableID,
		feature.DistinctID, feature.GroupByID, feature.HavingID,
		feature.PartialIndexID})
	return m
}

// prioritizerFeatures projects a generated feature set onto the core
// grammar features used for deduplication.
func prioritizerFeatures(fs *feature.Set) feature.Set {
	out := *fs
	out.Intersect(&coreFeatures)
	return out
}

// setupStatementFeatures is the mask of features the DDL/DML
// consecutive-failure rule applies to: statement kinds and DDL-only
// clauses.
var setupStatementFeatures = buildSetupFeatures()

func buildSetupFeatures() feature.Set {
	var m feature.Set
	m.AddAll(feature.StatementIDs)
	m.AddAll([]feature.ID{feature.StmtDropTableID, feature.StmtDropViewID,
		feature.StmtDropIndexID, feature.StmtReindexID, feature.UniqueIndexID,
		feature.PartialIndexID, feature.PrimaryKeyID, feature.NotNullColumnID,
		feature.UniqueColumnID, feature.InsertOrIgnoreID,
		feature.InsertMultiRowID, feature.ViewColumnNamesID})
	return m
}

// splitSetupFeatures separates a setup statement's features into the
// DDL-rule set and the Bayesian query set.
func splitSetupFeatures(fs *feature.Set) (ddl, expr feature.Set) {
	ddl, expr = *fs, *fs
	ddl.Intersect(&setupStatementFeatures)
	expr.Subtract(&setupStatementFeatures)
	return ddl, expr
}
