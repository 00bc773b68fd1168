package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// gatedRoots lists every function whose zero-allocation property is enforced
// at runtime by a testing.AllocsPerRun gate. Each must carry
// //oltpsim:hotpath so hotalloc checks the same property statically — the
// static and runtime nets are kept in lockstep by this test.
var gatedRoots = []struct{ dir, recv, fn string }{
	{"internal/engine", "Engine", "Invoke"},       // TestMicroTxZeroAllocs, TestOLAPTxZeroAllocs
	{"internal/engine", "Session", "Invoke"},      // TestSessionZeroAllocs
	{"internal/engine", "Session", "InvokeBatch"}, // TestSessionZeroAllocs
	{"internal/workload", "Micro", "Gen"},         // TestGenZeroAllocs
	{"internal/simmem", "Arena", "ReadU64"},       // TestTracedReadWriteU64Allocs
	{"internal/simmem", "Arena", "WriteU64"},      // TestTracedCoherentWriteAllocs, TestTracedNUMAWriteAllocs
	{"internal/metrics", "Histogram", "Record"},   // TestRecordAllocs
	{"internal/olog", "ConnLog", "Record"},        // TestRecordAllocs (olog)
	{"internal/wire", "Buffer", "Reset"},          // TestBufferReuse
	{"internal/wire", "Buffer", "Begin"},          // TestBufferReuse
	{"internal/wire", "Buffer", "U32"},            // TestBufferReuse
	{"internal/wire", "Buffer", "Bytes"},          // TestBufferReuse
	{"internal/wire", "Client", "Exec"},           // TestClientExecAllocs
}

func TestGatedRootsAnnotated(t *testing.T) {
	fset := token.NewFileSet()
	parsed := map[string][]*ast.File{} // dir -> files
	for _, root := range gatedRoots {
		dir := filepath.Join("..", "..", root.dir)
		files, ok := parsed[root.dir]
		if !ok {
			matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil || len(matches) == 0 {
				t.Fatalf("globbing %s: %v (%d files)", dir, err, len(matches))
			}
			for _, m := range matches {
				if strings.HasSuffix(m, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, m, nil, parser.ParseComments)
				if err != nil {
					t.Fatalf("parsing %s: %v", m, err)
				}
				files = append(files, f)
			}
			parsed[root.dir] = files
		}
		fd := findMethod(files, root.recv, root.fn)
		if fd == nil {
			t.Errorf("%s: method (%s).%s not found — update gatedRoots if it moved",
				root.dir, root.recv, root.fn)
			continue
		}
		if !hasHotpathMarker(fd.Doc) {
			t.Errorf("%s: (%s).%s is gated by a runtime AllocsPerRun test but lacks //oltpsim:hotpath",
				root.dir, root.recv, root.fn)
		}
	}
}

func findMethod(files []*ast.File, recv, name string) *ast.FuncDecl {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if recvTypeName(fd.Recv.List[0].Type) == recv {
				return fd
			}
		}
	}
	return nil
}

func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func hasHotpathMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == "//oltpsim:hotpath" {
			return true
		}
	}
	return false
}
