package sqlmini_test

import (
	"sqlarray/internal/sqlmini"
	"sqlarray/internal/tsql"
)

// tsql imports sqlmini (FromQuery runs a query), so the package's own
// tests cannot import it. This external test file, linked into the same
// test binary, hands them its registration.
func init() { sqlmini.RegisterTSQL = tsql.RegisterAll }
