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

// flagFiles names, per command README runs, the files that declare its
// flags: the serving commands share the workload flags, and oltpsim's
// analyze and compare subcommands declare theirs beside its figure flags.
var flagFiles = map[string][]string{
	"oltpd":     {"cmd/oltpd/main.go", "internal/workload/specflags.go"},
	"oltpdrive": {"cmd/oltpdrive/main.go", "internal/workload/specflags.go"},
	"oltpsim":   {"cmd/oltpsim/main.go", "cmd/oltpsim/analyze.go"},
}

// TestReadmeDriverFlags holds README to the flag sets of oltpdrive, oltpd and
// oltpsim: every flag on a command line of theirs in a sh block (`go run
// ./cmd/<name>` included, continuation lines joined) is one the command
// declares, and every flag it declares has a row in the "Option surface"
// table, whose rows name no other flag. The table's fields are held to
// server.Config and driver.Config the same way.
func TestReadmeDriverFlags(t *testing.T) {
	readmeBytes, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(readmeBytes)
	rows := surfaceRows(t, readme)
	for name, files := range flagFiles {
		t.Run(name, func(t *testing.T) {
			declared := declaredFlags(t, files...)
			if len(declared) == 0 {
				t.Fatal("found no flag declarations")
			}
			if commandLineFlags(t, readme, name, declared) == 0 {
				t.Fatalf("README has no %s command line in a sh block", name)
			}
			tabled := make(map[string]bool)
			for _, r := range rows {
				if !slices.ContainsFunc(r.surfaces, func(s string) bool { return strings.Fields(s)[0] == name }) ||
					!strings.HasPrefix(r.option, "-") {
					continue
				}
				flag := strings.TrimPrefix(r.option, "-")
				tabled[flag] = true
				if !declared[flag] {
					t.Errorf("the option surface lists %s -%s, which it does not declare", name, flag)
				}
			}
			for flag := range declared {
				if !tabled[flag] {
					t.Errorf("%s declares -%s, which has no row in the option surface", name, flag)
				}
			}
		})
	}
	for _, c := range []struct{ file, pkg, cmd string }{
		{"internal/server/server.go", "server", "oltpd"},
		{"internal/driver/driver.go", "driver", "oltpdrive"},
	} {
		fields := configFields(t, c.file)
		named := make(map[string]bool)
		for _, r := range rows {
			for _, s := range r.surfaces {
				switch {
				case s == c.cmd && r.field != "":
					named[r.field] = true
				case s == c.pkg+".Config":
					named[r.option] = true
				}
			}
		}
		for f := range named {
			if !fields[f] {
				t.Errorf("the option surface names %s.Config.%s, which is not a field", c.pkg, f)
			}
		}
		for f := range fields {
			if !named[f] {
				t.Errorf("%s.Config.%s has no row in the option surface", c.pkg, f)
			}
		}
	}
}

// commandLineFlags checks every flag on a `name …` or `go run ./cmd/name …`
// command line in README's sh blocks against declared and returns how many
// such lines it read.
func commandLineFlags(t *testing.T, readme, name string, declared map[string]bool) int {
	t.Helper()
	blocks := regexp.MustCompile("(?s)```sh\n(.*?)```").FindAllStringSubmatch(readme, -1)
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
			fields := strings.Fields(cmd)
			cmd = ""
			if len(fields) >= 3 && fields[0] == "go" && fields[1] == "run" && fields[2] == "./cmd/"+name {
				fields = fields[2:]
			} else if len(fields) == 0 || fields[0] != name {
				continue
			}
			lines++
			for _, f := range fields[1:] {
				if f == "#" {
					break
				}
				if m := flagTok.FindStringSubmatch(f); m != nil && !declared[m[1]] {
					t.Errorf("README runs %s with -%s, which it does not declare:\n%s", name, m[1], strings.Join(fields, " "))
				}
			}
		}
	}
	return lines
}

// surfaceRow is one row of README's "Option surface" table: the surfaces
// that accept the option, the option (a flag, a field, a profile or a
// format), and the Config field it sets ("" for none).
type surfaceRow struct {
	surfaces      []string
	option, field string
}

func surfaceRows(t *testing.T, readme string) []surfaceRow {
	t.Helper()
	_, section, ok := strings.Cut(readme, "\n### Option surface\n")
	if !ok {
		t.Fatal(`README.md has no "### Option surface" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	code := regexp.MustCompile("`([^`]+)`")
	first := func(cell string) string {
		if m := code.FindStringSubmatch(cell); m != nil {
			return m[1]
		}
		return ""
	}
	var rows []surfaceRow
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || strings.HasPrefix(cells[1], "---") || strings.TrimSpace(cells[1]) == "Surface" {
			continue
		}
		r := surfaceRow{option: first(cells[2]), field: first(cells[3])}
		for _, m := range code.FindAllStringSubmatch(cells[1], -1) {
			r.surfaces = append(r.surfaces, m[1])
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		t.Fatal("the option surface has no rows")
	}
	return rows
}

// configFields returns the field names of the struct type Config in file.
func configFields(t *testing.T, file string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fields := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Config" {
			for _, fl := range ts.Type.(*ast.StructType).Fields.List {
				for _, id := range fl.Names {
					fields[id.Name] = true
				}
			}
		}
		return true
	})
	if len(fields) == 0 {
		t.Fatalf("%s declares no Config struct", file)
	}
	return fields
}
