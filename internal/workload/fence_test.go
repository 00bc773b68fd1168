package workload_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"oltpsim/internal/engine"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// runLineFence is the scaffold of this package's generated-file fences: it
// runs cell as a subtest for every archetype × workload name and holds the
// line it renders against the "system/workload line" entry of file; with
// update set it rewrites file (header first) from this run instead.
func runLineFence(t *testing.T, file, header string, update bool, workloads []string,
	cell func(t *testing.T, kind systems.Kind, workload int) string) {
	data, err := os.ReadFile(file)
	if err != nil && !update {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		want[name] = rest
	}
	var out strings.Builder
	out.WriteString(header + "\n")
	for _, kind := range systems.All() {
		for i, wl := range workloads {
			name := strings.ReplaceAll(kind.String(), " ", "") + "/" + wl
			t.Run(name, func(t *testing.T) {
				got := cell(t, kind, i)
				fmt.Fprintf(&out, "%s %s\n", name, got)
				if got != want[name] && !update {
					t.Fatalf("diverged from %s:\n got %s\nwant %s", file, got, want[name])
				}
			})
		}
	}
	if update {
		if err := os.WriteFile(file, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// populateUntraced builds the archetype, installs w and populates it with
// tracing off (left off). DBMS M indexes the scannable workloads with its
// B-tree variant, as the harness does.
func populateUntraced(kind systems.Kind, opts systems.Options, w workload.Workload) *engine.Engine {
	if _, micro := w.(*workload.Micro); kind == systems.DBMSM && !micro {
		opts.Index, opts.HasIndexOverride = engine.IndexCCTree512, true
	}
	e := systems.New(kind, opts)
	w.Setup(e)
	e.Machine().Arena.EnableTracing(false)
	w.Populate(e)
	return e
}
