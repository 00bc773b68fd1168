package oltpsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"oltpsim/internal/server"
)

// TestReadmePackageMap holds README's "Package map" table to the tree: every
// directory under internal/ and cmd/ that holds non-test Go has a row naming
// it or one of its parents, and every path a row names is a directory.
func TestReadmePackageMap(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Package map\n")
	if !ok {
		t.Fatal(`README.md has no "## Package map" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	code := regexp.MustCompile("`([^`]+)`")
	var named []string
	for _, line := range strings.Split(section, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 3 {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(cols[1], -1) {
			p := strings.TrimSuffix(m[1], "/")
			if p == "oltpsim" { // the root package, named by its import path
				p = "."
			}
			if st, err := os.Stat(p); err != nil || !st.IsDir() {
				t.Errorf("package map names %q, which is not a directory", m[1])
			}
			named = append(named, p)
		}
	}
	if len(named) == 0 {
		t.Fatal("package map names no paths")
	}

	dirs := make(map[string]bool)
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
				dirs[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for dir := range dirs {
		if !slices.ContainsFunc(named, func(p string) bool { return dir == p || strings.HasPrefix(dir, p+"/") }) {
			t.Errorf("%s holds Go code but no package map row names it or a parent", dir)
		}
	}
}

// TestReadmeCollectorGroups holds README's "Live telemetry" section to
// oltpd's family table: the collector groups it describes, each written as
// "`name` (what it holds)", are exactly server.CollectorGroups().
func TestReadmeCollectorGroups(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Live telemetry\n")
	if !ok {
		t.Fatal(`README.md has no "### Live telemetry" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	var named []string
	for _, m := range regexp.MustCompile("`([a-z0-9_]+)`\\s+\\(").FindAllStringSubmatch(section, -1) {
		named = append(named, m[1])
	}
	slices.Sort(named)
	if want := server.CollectorGroups(); !slices.Equal(named, want) {
		t.Errorf("README's Live telemetry names collector groups %v, oltpd has %v", named, want)
	}
}

// declaredFlags parses Go files and returns the name of every flag they
// declare through a FlagSet's defining methods (fs.String("name", ...),
// fs.IntVar(&v, "name", ...)).
func declaredFlags(t *testing.T, files ...string) map[string]bool {
	t.Helper()
	definer := regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)(Var)?$`)
	flags := make(map[string]bool)
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !definer.MatchString(sel.Sel.Name) {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if arg < len(call.Args) {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					flags[strings.Trim(lit.Value, "`\"")] = true
				}
			}
			return true
		})
	}
	return flags
}

// TestReadmeDriverFlags holds README to oltpdrive's flag set: every flag on
// an `oltpdrive …` command line in a sh block (continuation lines included)
// is one the command declares, and every flag it declares, its own and the
// shared workload flags, is named somewhere in README.
func TestReadmeDriverFlags(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := declaredFlags(t, "cmd/oltpdrive/main.go", "internal/workload/specflags.go")
	if len(declared) == 0 {
		t.Fatal("found no flag declarations")
	}

	blocks := regexp.MustCompile("(?s)```sh\n(.*?)```").FindAllStringSubmatch(string(readme), -1)
	flagTok := regexp.MustCompile(`^-{1,2}([a-z][a-z0-9-]*)(=.*)?$`)
	lines := 0
	for _, b := range blocks {
		cmd := ""
		for _, line := range strings.Split(b[1], "\n") {
			cmd += line
			if strings.HasSuffix(line, "\\") {
				cmd = strings.TrimSuffix(cmd, "\\") + " "
				continue
			}
			if fields := strings.Fields(cmd); len(fields) > 0 && fields[0] == "oltpdrive" {
				lines++
				for _, f := range fields[1:] {
					if m := flagTok.FindStringSubmatch(f); m != nil && !declared[m[1]] {
						t.Errorf("README runs oltpdrive with -%s, which it does not declare:\n%s", m[1], strings.Join(fields, " "))
					}
				}
			}
			cmd = ""
		}
	}
	if lines == 0 {
		t.Fatal("README has no oltpdrive command line in a sh block")
	}

	for name := range declared {
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`).Match(readme) {
			t.Errorf("oltpdrive declares -%s, which README never names", name)
		}
	}
}
