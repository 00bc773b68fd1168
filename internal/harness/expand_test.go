package harness

import (
	"reflect"
	"strings"
	"testing"
)

// TestExpandFigureIDs covers the -figure argument: the family keywords expand
// to the one families table in its order, explicit IDs pass through, and
// unknown -figure IDs are rejected with a clear error (so cmd/oltpsim exits
// nonzero) instead of being silently skipped.
func TestExpandFigureIDs(t *testing.T) {
	// Keywords expand, compose, and preserve request order.
	ids, err := ExpandFigureIDs("all")
	if err != nil {
		t.Fatalf("all: %v", err)
	}
	if len(ids) != len(FamilyIDs("all")) {
		t.Fatalf("all expanded to %d IDs, want %d", len(ids), len(FamilyIDs("all")))
	}
	ids, err = ExpandFigureIDs("numa,htap,serve,scenario,islands")
	if err != nil {
		t.Fatalf("numa,htap,serve,scenario,islands: %v", err)
	}
	want := []string{"N1", "N2", "N3", "H1", "H2", "H3", "S1", "S2", "S3", "C1", "C2", "I1", "I2", "I3"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("keyword expansion = %v, want %v", ids, want)
	}

	// Explicit IDs pass through, with whitespace tolerated and duplicates
	// preserved (the runner's cell cache dedups the work, not the output).
	ids, err = ExpandFigureIDs(" 2 ,3,2")
	if err != nil {
		t.Fatalf("explicit IDs: %v", err)
	}
	if len(ids) != 3 || ids[0] != "2" || ids[2] != "2" {
		t.Fatalf("explicit IDs = %v", ids)
	}

	// Every family has a keyword and a heading, and every registered ID
	// resolves.
	var keywords []string
	for _, fam := range Families {
		keywords = append(keywords, fam.Keyword)
		if fam.Heading == "" || len(fam.Figures) == 0 {
			t.Errorf("family %q has no heading or no figures", fam.Keyword)
		}
		ids, _ := ExpandFigureIDs(fam.Keyword)
		if len(ids) != len(fam.Figures) {
			t.Errorf("%s expanded to %v for %d figures", fam.Keyword, ids, len(fam.Figures))
		}
		for _, id := range ids {
			if _, ok := FigureBuilder(id); !ok {
				t.Fatalf("%s expanded to unresolvable ID %q", fam.Keyword, id)
			}
		}
	}
	if want := []string{"all", "numa", "htap", "serve", "scenario", "islands"}; !reflect.DeepEqual(keywords, want) {
		t.Fatalf("families = %v, want %v", keywords, want)
	}

	// Unknown, empty, and half-valid inputs all fail loudly.
	for _, bad := range []string{"nope", "2,nope", "", "2,,3", "figS1"} {
		if _, err := ExpandFigureIDs(bad); err == nil {
			t.Fatalf("ExpandFigureIDs(%q) did not fail", bad)
		}
	}
	if _, err := ExpandFigureIDs("2,bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("error does not name the offending ID: %v", err)
	}
}
