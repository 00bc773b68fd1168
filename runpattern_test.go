package oltpsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunPatternsMatchTests holds every `go test` line of the Makefile (the
// smoke cases' `*_tests` lists and the recipes) and of CI to the tests it
// names: each alternative of a -run, -bench or -fuzz pattern must match a
// Test, Benchmark or Fuzz function of a package listed with it. `go test -run
// X` passes when nothing matches, so without this a renamed or deleted test
// would quietly drop out of its smoke case. Only a pattern's first level (the
// function name, before any unbracketed slash) is checked, unanchored as `go
// test` matches it; `-run '^$'`, which selects no test on purpose, is skipped.
func TestRunPatternsMatchTests(t *testing.T) {
	var lines []string
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listItem := regexp.MustCompile(`"([^"]*)"`)
	for _, line := range strings.Split(strings.ReplaceAll(string(makefile), "\\\n", " "), "\n") {
		line = strings.ReplaceAll(line, "$$", "$")
		if name, list, ok := strings.Cut(line, "_tests ="); ok && !strings.ContainsAny(name, " \t") {
			for _, m := range listItem.FindAllStringSubmatch(list, -1) {
				lines = append(lines, m[1])
			}
		} else if _, args, ok := strings.Cut(line, "$(GO) test "); ok {
			lines = append(lines, args)
		}
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(ci), "\n") {
		if _, args, ok := strings.Cut(line, "go test "); ok {
			lines = append(lines, args)
		}
	}

	funcs := map[string][]string{} // package directory → its test functions
	checked := 0
	for _, line := range lines {
		args := shellFields(line)
		var pkgs, patterns []string
		for i, a := range args {
			switch {
			case strings.HasPrefix(a, "."):
				pkgs = append(pkgs, a)
			case (a == "-run" || a == "-bench" || a == "-fuzz") && i+1 < len(args):
				if a != "-run" || args[i+1] != "^$" {
					patterns = append(patterns, args[i+1])
				}
			}
		}
		for _, pat := range patterns {
			for _, alt := range splitTopLevel(splitTopLevel(pat, '/')[0], '|') {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%q: %v", line, err)
					continue
				}
				matched := false
				for _, pkg := range pkgs {
					if funcs[pkg] == nil {
						funcs[pkg] = testFuncs(t, pkg)
					}
					for _, f := range funcs[pkg] {
						matched = matched || re.MatchString(f)
					}
				}
				if !matched {
					t.Errorf("go test %s: %q matches no test function in %v", line, alt, pkgs)
				}
				checked++
			}
		}
	}
	t.Logf("checked %d pattern alternatives on %d go test lines", checked, len(lines))
	if checked < 30 {
		t.Fatalf("checked %d pattern alternatives; the Makefile's smoke lists alone hold 30", checked)
	}
}

// shellFields splits a command line into words, honouring single and double
// quotes (no escapes or expansions: the lines checked use neither).
func shellFields(line string) []string {
	var fields []string
	var cur strings.Builder
	quote, inWord := rune(0), false
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				fields = append(fields, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		fields = append(fields, cur.String())
	}
	return fields
}

// splitTopLevel splits a regular expression at every sep outside brackets
// and parentheses, as `go test` splits a pattern into levels at slashes.
func splitTopLevel(re string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, re[start:])
}

// testFuncs returns the Test, Benchmark and Fuzz functions of the package
// in directory pkg.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(pkg, "*_test.go")) // the pattern is well formed
	if len(files) == 0 {
		t.Errorf("package %s has no test files", pkg)
	}
	testFunc := regexp.MustCompile(`^(Test|Benchmark|Fuzz)`)
	var names []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
