package sqlparse

import "sqlancerpp/internal/sqlast"

// RefParse and RefParseExpr expose the reference parser of
// parserref_test.go to the external test package.
var (
	RefParse     = refParse
	RefParseExpr = refParseExpr
)

// SetSeedCheck makes every Cache.Seed call f with the seeded text and
// tree first; f == nil disarms the check.
func SetSeedCheck(f func(src string, st sqlast.Stmt)) { seedCheck = f }
