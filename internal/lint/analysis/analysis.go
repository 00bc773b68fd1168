// Package analysis is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis driver contract: an Analyzer holds a name,
// a doc string and a Run function; a Pass hands Run one type-checked package
// and collects Diagnostics. The repository cannot vendor x/tools (the build
// is offline by policy), so oltplint's analyzers are written against this
// API-compatible core instead; porting them to the real framework is a
// mechanical import swap.
//
// The one extension over the bare x/tools surface is an in-process fact
// store: when the driver (cmd/oltplint) analyzes a whole module in one
// process, analyzers can attach facts to types.Object values of one package
// and read them back while analyzing a dependent package. This is how
// hotalloc propagates "this function allocates" across package boundaries
// without serialized fact files.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (a valid identifier).
	Name string
	// Doc is the analyzer's documentation, shown by oltplint -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass provides one package's syntax and types to an Analyzer's Run, and
// collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report publishes one diagnostic. Set by the driver.
	Report func(Diagnostic)

	facts *FactStore
}

// Reportf publishes a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Fact is analyzer-private information attached to a types.Object, visible
// to later passes of the same analyzer over dependent packages.
type Fact interface{ AFact() }

// ExportObjectFact attaches fact to obj for downstream packages. It is a
// no-op when the driver runs without a fact store.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts != nil {
		p.facts.put(p.Analyzer, obj, fact)
	}
}

// ImportObjectFact copies the fact attached to obj (by an earlier pass of
// the same analyzer) into *fact and reports whether one was found. fact must
// be a pointer to the concrete fact type.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.get(p.Analyzer, obj, fact)
}

// FactStore keeps object facts for one whole-program analysis run. The zero
// value is not usable; call NewFactStore.
type FactStore struct {
	m map[factKey]Fact
}

type factKey struct {
	a   *Analyzer
	obj types.Object
}

// NewFactStore returns an empty fact store.
func NewFactStore() *FactStore { return &FactStore{m: make(map[factKey]Fact)} }

func (s *FactStore) put(a *Analyzer, obj types.Object, fact Fact) {
	s.m[factKey{a, obj}] = fact
}

func (s *FactStore) get(a *Analyzer, obj types.Object, out Fact) bool {
	f, ok := s.m[factKey{a, obj}]
	if !ok {
		return false
	}
	return copyFact(f, out)
}
