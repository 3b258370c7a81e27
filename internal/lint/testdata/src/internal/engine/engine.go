// Minimal stand-in for sirum/internal/engine: just enough surface for the
// pairedlifecycle fixtures to type-check. The check matches lifecycle types
// by package name and type name, so this package must be named engine and
// declare QueryScope.
package engine

type Backend interface {
	Name() string
}

type QueryScope struct{}

func NewQueryScope(b Backend) *QueryScope { return &QueryScope{} }

func (s *QueryScope) Base() Backend { return nil }

func (s *QueryScope) Finish() {}

func (s *QueryScope) Close() error { return nil }
