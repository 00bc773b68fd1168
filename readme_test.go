package oltpsim

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
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
