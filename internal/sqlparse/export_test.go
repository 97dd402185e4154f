package sqlparse

// RefParse and RefParseExpr expose the reference parser of
// parserref_test.go to the external test package.
var (
	RefParse     = refParse
	RefParseExpr = refParseExpr
)
